"""Text forms: parsing, rendering, and the round-trip invariant."""

import random
from fractions import Fraction as Q

import pytest

from tamesym import (AtomRegistry, Inconclusive, ParseError, gamma_str,
                     lambda_str, parse_bifrac, parse_cycle, parse_divisor,
                     parse_element, parse_gamma, parse_place, parse_ratfunc,
                     parse_wedge, poly_str, wedge_str)
from tamesym.expressions import ratfunc_str
from test_polynomials import swinnerton_dyer


def test_ratfunc_parsing():
    f = parse_ratfunc("t^2 - 3*t + 1/2")
    assert ratfunc_str(f, "t") == "t^2-3*t+1/2"
    assert parse_ratfunc("(t-1)/(t-2)") == parse_ratfunc("(2*t-2)/(2*t-4)")
    assert parse_ratfunc("t^-1") == parse_ratfunc("1/t")
    assert parse_ratfunc("-t^2") == parse_ratfunc("0-t^2")
    # reduced form keeps the denominator monic
    assert ratfunc_str(parse_ratfunc("(t-1)/(3*t)"), "t") == "(1/3*t-1/3)/(t)"


def test_expression_precedence():
    assert parse_ratfunc("1+2*3") == parse_ratfunc("7")
    assert parse_ratfunc("(1+2)*3") == parse_ratfunc("9")
    assert parse_ratfunc("-2^2") == parse_ratfunc("-4")
    assert parse_ratfunc("2*t^2") == parse_ratfunc("2*(t^2)")
    assert parse_ratfunc("1-1/2") == parse_ratfunc("1/2")


def test_bifrac_parsing():
    f = parse_bifrac("(x-y)/(x+y)")
    g = parse_bifrac("(2*x-2*y)/(2*x+2*y)")
    assert f.num * g.den == g.num * f.den


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_ratfunc("t +")
    assert "position" in str(e.value)
    with pytest.raises(ParseError):
        parse_ratfunc("1/(t-t)")
    with pytest.raises(ParseError):
        parse_wedge("w[t", AtomRegistry())
    with pytest.raises(ParseError):
        parse_wedge("w[t tail]", AtomRegistry())


def test_wedge_round_trip_handpicked():
    reg = AtomRegistry()
    for text in ("w[t, 1-t, 1-3/t]", "-w[t-3, t-1, t]",
                 "3/2*w[2, t] - w[t-1, t]", "w[5, y-2, x-1, x-y]",
                 "0", "7", "-5/3", "w[x*y-1, x, y]"):
        w = parse_wedge(text, reg)
        again = parse_wedge(wedge_str(w), reg, field=w.field)
        assert again == w


def test_wedge_entries_factor_on_parse():
    reg = AtomRegistry()
    assert parse_wedge("w[t^2-3*t+2, 5]", reg) == \
        parse_wedge("w[(t-1)*(t-2), 5]", reg)


def test_wedge_zero_entry_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_wedge("w[t-t, 5]", AtomRegistry())


def test_wedge_round_trip_randomized():
    rng = random.Random(81)
    reg = AtomRegistry()
    for _ in range(40):
        parts = []
        for _ in range(rng.randint(1, 3)):
            coeff = rng.choice(["", "2*", "1/2*", "3*"])
            roots = rng.sample(range(-5, 6), 2)
            entries = ", ".join(f"t-{r}".replace("-0", "") if r >= 0
                                else f"t+{-r}" for r in roots)
            parts.append(f"{coeff}w[{entries}]")
        text = " - ".join(parts)
        w = parse_wedge(text, reg)
        assert parse_wedge(wedge_str(w), reg, field="Qt") == w


def test_gamma_round_trip_and_tensor_spellings():
    reg = AtomRegistry()
    spellings = ("{(3*t-3)/(t-3)}_2 (x) w[t-3]",
                 "{(3*t-3)/(t-3)}_2 ⊗ w[t-3]",
                 "{(3*t-3)/(t-3)}₂ @ w[t-3]")
    parsed = {gamma_str(parse_gamma(s, reg)) for s in spellings}
    assert parsed == {"{(3*t-3)/(t-3)}_2 ⊗ w[t-3]"}
    for text in ("-{-4}_2", "2*{-6}_2 - {-7/2}_2", "0",
                 "{(3*t-3)/(t-3)}_2 (x) w[t-3] + {-5}_2 @ w[t-1]"):
        g = parse_gamma(text, reg)
        assert parse_gamma(gamma_str(g), reg, field=g.field) == g


def test_gamma_torsion_normalizes_on_parse():
    reg = AtomRegistry()
    assert gamma_str(parse_gamma("{3}_2", reg)) == "-{-2}_2"
    assert parse_gamma("{2}_2", reg).is_zero


def test_element_round_trip():
    reg = AtomRegistry()
    for text in ("m=2; [S: w[x-1, y-2, x-y, 5]]",
                 "m=2; [S: w[x-1, y-2, x-y, 5]] - 2*[pt: w[2, 3]]",
                 "m=1; [P1: w[t, t-1]] + [pt: w[2]]",
                 "m=3; 0"):
        e = parse_element(text, reg)
        assert parse_element(lambda_str(e), reg) == e


def test_element_degree_validation():
    reg = AtomRegistry()
    with pytest.raises(ParseError):
        parse_element("m=2; [S: w[x-1, y-2]]", reg)
    with pytest.raises(ParseError):
        parse_element("m=2; [pt: w[2, 3, 5]]", reg)
    with pytest.raises(ParseError):
        parse_element("m=2; [P1: w[x-1, y-1, x-y, 5]]", reg)


def test_cycle_round_trip():
    for text in ("cyc[2*(t-1)/(t-3), 5*(t-2)/(t-4)]",
                 "-3*cyc[t, t-1, 7]", "cyc[1/2]"):
        z = parse_cycle(text)
        assert parse_cycle(str(z)) == z


def test_place_parsing_and_normalization():
    assert str(parse_place("t=3")) == "t=3"
    assert str(parse_place("t=-1/2")) == "t=-1/2"
    assert str(parse_place("t=inf")) == "t=inf"
    assert str(parse_place("t^2+1=0")) == "t^2+1=0"
    # the defining polynomial is normalized to be monic
    assert parse_place("2*t^2+2=0") == parse_place("t^2+1=0")
    # degree one fall-through
    assert str(parse_place("t-5=0")) == "t=5"
    assert str(parse_place("2*t-1=0")) == "t=1/2"


def test_place_rejects_reducible_polynomials():
    with pytest.raises(ParseError):
        parse_place("t^2-1=0")
    with pytest.raises(ParseError):
        parse_place("t^2-5*t+6=0")


def test_place_inconclusive_irreducibility_propagates():
    sd32 = poly_str(swinnerton_dyer((2, 3, 5, 7, 11)), "t")
    with pytest.raises(Inconclusive) as err:
        parse_place(f"{sd32}=0")
    assert sd32 in str(err.value)


def test_divisor_parsing():
    assert str(parse_divisor("x=3")) == "x=3"
    assert str(parse_divisor("y=-1/2")) == "y=-1/2"
    assert str(parse_divisor("x=inf")) == "x=inf"
    assert str(parse_divisor("y=inf")) == "y=inf"
    assert str(parse_divisor("y=(x+3)/(x-1)")) == "y=(x+3)/(x-1)"
    assert str(parse_divisor("x=y^2-1")) == "x=y^2-1"
    # a graph that is secretly constant folds to a line
    assert str(parse_divisor("y=(2*x+6)/(x+3)")) == "y=2"


def test_divisor_round_trip():
    for text in ("x=3", "y=-1/2", "x=inf", "y=inf", "y=(x+3)/(x-1)",
                 "x=y^2-1", "y=x", "y=x+1"):
        d = parse_divisor(text)
        assert parse_divisor(str(d)) == d


def test_divisor_matches_atom_classification():
    from tamesym import classify_atom_divisor, mult_vec, parse_bifrac
    reg = AtomRegistry()
    for text, spelled in (("x*y-1", "y=1/x"), ("x-y", "y=x"),
                          ("x-3", "x=3"), ("y+2", "y=-2")):
        v = mult_vec(parse_bifrac(text), reg, "Qxy")
        (atom, _), = v.coeffs
        assert classify_atom_divisor(atom) == parse_divisor(spelled)
