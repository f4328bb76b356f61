"""Text forms: parsing, rendering, and the round-trip invariant."""

import random
import sys
from fractions import Fraction as Q
from functools import partial
from pathlib import Path

import pytest

from tamesym import (FIELD_VARS, AtomRegistry, Inconclusive, ParseError,
                     gamma_str, lambda_str, parse_bifrac, parse_cycle,
                     parse_divisor, parse_element, parse_gamma, parse_place,
                     TameSymError, parse_ratfunc, parse_wedge, poly_str,
                     wedge_str)
from tamesym import dsl
from tamesym.expressions import ratfunc_str
from test_mirror import _slot
from test_polynomials import swinnerton_dyer

# the benchmark's text generator, read only
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


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


def test_leading_plus():
    """A leading '+' parses on elements as on wedge and gamma sums, and
    means what the unsigned text means."""
    reg = AtomRegistry()
    for text in ("m=1; [P1: w[t, 1-t]]",
                 "m=2; [S: w[x-1, y-2, x-y, 5]] - 2*[pt: w[2, 3]]",
                 "m=1; [P1: w[t, t-1]] + [pt: w[2]] - [P1: w[t, 3]]"):
        plus = text.replace("; ", "; +", 1)
        assert parse_element(plus, reg) == parse_element(text, reg)
    assert parse_wedge("+w[t, 1-t]", reg) == parse_wedge("w[t, 1-t]", reg)
    assert parse_gamma("+{t}_2", reg) == parse_gamma("{t}_2", reg)


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
    # a graph that is secretly constant is a line
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


_ENTRY_LEAVES = {
    "Qt": ["t", "(t-1)", "(t+2)", "(2*t-3)", "(t^2+1)", "3", "1/2", "0", "(t-t)"],
    "Qxy": ["x", "y", "(x-1)", "(y+2)", "(x*y-1)", "(y-x^2)", "(x-y)", "6", "0"],
    "Q": ["2", "3", "6", "1/3", "5", "12", "0", "(2-2)"],
}


def _rand_entry(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(leaves)
    a = _rand_entry(rng, leaves, depth - 1)
    b = _rand_entry(rng, leaves, depth - 1)
    op = rng.choice("*/^-+(")
    if op == "^":
        return f"({a})^{rng.choice(['0', '1', '2', '3', '-1', '-2'])}"
    if op == "-":
        return f"-{a}" if rng.random() < 0.5 else f"{a}/-{b}"
    if op == "+":
        return f"({a}{rng.choice('+-')}{b})"
    if op == "(":
        return f"({a})*({b})"
    return f"{a}{op}{b}"


def _expected_entry(text, field, reg):
    """The one-entry wedge w[text] from the entry multiplied out as a value,
    or the ParseError its value parse raises, shifted past 'w['."""
    from tamesym import mult_vec, wedge_of
    from tamesym.dsl import _Scanner, _ctx_for, _expr, _finish
    try:
        if field == "Qt":
            value = parse_ratfunc(text)
        elif field == "Qxy":
            value = parse_bifrac(text)
        else:
            s = _Scanner(text)
            value = _expr(s, _ctx_for("Q")).value()
            _finish(s)
    except ParseError as e:
        return str(ParseError(str(e).rsplit(" (at position", 1)[0], e.pos + 2))
    if value == 0 or getattr(value, "is_zero", False):
        return str(ParseError("wedge entry is identically zero", 2))
    try:
        return wedge_of([mult_vec(value, reg, field)])
    except Inconclusive:
        return Inconclusive


def test_entry_classes_match_the_expanded_value():
    """Each factor of an entry is classed on its own, never multiplied out;
    the class, or the refusal and its position, is the one the entry's
    expanded value gives: products, quotients, powers (exponent 0 and
    negative ones included), negations, nested parentheses and sums of
    products, over Qt, Qxy and Q."""
    rng = random.Random(1609)
    reg = AtomRegistry()
    for field, leaves in _ENTRY_LEAVES.items():
        for _ in range(150):
            text = _rand_entry(rng, leaves, 3)
            want = _expected_entry(text, field, reg)
            try:
                got = parse_wedge(f"w[{text}]", reg, field=field)
            except ParseError as e:
                got = str(e)
            except Inconclusive:
                got = Inconclusive
            assert got == want, (field, text)


@pytest.mark.parametrize("text, message", [
    ("w[t, (t-1)/(t-t)]", "division by zero (at position 11)"),
    ("w[t, (t-1)/((t+1)*0)]", "division by zero (at position 11)"),
    ("w[t, (t-t)^-2]", "negative power of zero (at position 12)"),
    ("w[t, ((t+1)*0)^-2]", "negative power of zero (at position 16)"),
    ("w[t, (t-1)*0*(t+1)]", "wedge entry is identically zero (at position 4)"),
    ("w[t, ((t-1)*(t+1))^60]",
     "power of degree 2 * 60 is above the limit 100 (at position 19)"),
    ("w[x-y, ((x-y)*(x+y))^60]",
     "power of degree 4 * 60 is above the limit 100 (at position 21)"),
    ("w[t, (3^2048*3^2048)^2]",
     "power of bit length 6493 * 2 is above the limit 4096 (at position 21)"),
    ("w[t, (3^2048*3^2048/3^2048)^2]",
     "power of bit length 3247 * 2 is above the limit 4096 (at position 28)"),
    ("w[t, ((t^2-1)/(t-1))^60]",
     "power of degree 3 * 60 is above the limit 100 (at position 21)"),
])
def test_product_entry_refusals_keep_their_text(text, message):
    """A power bound sees the degree bound of its base, with equal bases
    merged, and a constant base multiplied out; a cancellation between
    distinct bases, as in the last text, does not bring it under the
    limit."""
    with pytest.raises(ParseError) as e:
        parse_wedge(text, AtomRegistry())
    assert str(e.value) == message


def test_power_bound_sees_the_reduced_base():
    reg = AtomRegistry()
    assert parse_wedge("w[t, ((t-1)*(t+1)/(t-1))^60]", reg) == \
        parse_wedge("w[t, (t+1)^60]", reg)


def _gamma_arg(text):
    return parse_gamma(f"{{{text}}}_2", AtomRegistry())


# every text that is multiplied out to a value, with the offset of the
# expression in it and the variable it is written in
_VALUE_CONTEXTS = [
    (parse_ratfunc, "{}", 0, "t"),
    (parse_bifrac, "{}", 0, "x"),
    (_gamma_arg, "{}", 1, "t"),
    (parse_cycle, "cyc[t, {}]", 6, "t"),
    (parse_place, "{}=0", 0, "t"),
    (parse_divisor, "y={}", 2, "x"),
]


@pytest.mark.parametrize("parse, shape, at, var", _VALUE_CONTEXTS,
                         ids=["ratfunc", "bifrac", "symbol", "cycle", "place",
                              "divisor"])
def test_value_texts_bound_the_merged_degree(parse, shape, at, var):
    """A text outside a wedge entry is multiplied out only when its degree
    bound, with equal bases merged, is within MAX_POWER_DEGREE; above it,
    it is refused at the start of the expression."""
    parse(shape.format("(V^100+2)*(V+3)/(V+3)".replace("V", var)))
    with pytest.raises(ParseError) as e:
        parse(shape.format("(V^100+2)*V".replace("V", var)))
    assert str(e.value) == \
        f"expression of degree 101 is above the limit 100 (at position {at})"


@pytest.mark.parametrize("parse, shape, at, var", _VALUE_CONTEXTS,
                         ids=["ratfunc", "bifrac", "symbol", "cycle", "place",
                              "divisor"])
@pytest.mark.parametrize("factor", ["((V+1)^100/(V+1)^100)^4096",
                                    "(3^2048/3^2048)^4096",
                                    "(3^2048*(1/3+0)^2048)^4096",
                                    "(3^2048/3^2048+0)^4096"],
                         ids=["degree", "bits", "bits-distinct-bases",
                              "bits-unreduced-base"])
def test_value_texts_never_raise_factors_that_cancel(parse, shape, at, var,
                                                     factor):
    """A power whose factors cancel passes its bounds; it is multiplied out
    with equal bases merged, and a constant base as the number it stands
    for, never as written (over Q(x, y) the last base is 3^2048/3^2048 as
    written, since a bivariate fraction is not reduced)."""
    text = shape.format(f"{factor}*(V-2)".replace("V", var))
    assert parse(text) == parse(shape.format(f"{var}-2"))


# -- every value type reads back -------------------------------------------
# Seeded texts are parsed into values; each nonzero value is rendered and
# parsed again with its field, and must come back equal.

def _q(rng) -> str:
    n = rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 7])
    return f"({n}/{rng.randint(1, 3)})"


def _uni(rng, var: str) -> str:
    """A nonconstant function of `var`: a constant times one or two
    factors of distinct shapes, each maybe inverted."""
    shapes = [f"({var}-{_q(rng)})", f"({var}^2+{rng.randint(1, 3)})",
              f"({var}^2-{var}-{_q(rng)})", var]
    factors = rng.sample(shapes, rng.randint(1, 2))
    return _q(rng) + "".join(rng.choice(["*", "/"]) + f for f in factors)


def _entry(rng, field: str) -> str:
    if field == "Q" or rng.random() < 0.2:
        return rng.choice(["2", "3", "5", "6", "-10", "7/3", "-4/9"])
    if field == "Qxy":
        return _slot(rng)
    return _uni(rng, FIELD_VARS[field])


def _entries(rng, field: str, degree: int) -> list[str]:
    return [_entry(rng, field) for _ in range(degree)]


def _sum(rng, items) -> str:
    """A signed sum of the items with rational coefficients."""
    text = ""
    for i, item in enumerate(items):
        sign = rng.choice(["+", "-"])
        coeff = rng.choice(["", "", "2*", "1/2*", "7/3*"])
        text += (f"{sign}{coeff}{item}" if i == 0 else
                 f" {sign} {coeff}{item}")
    return text


def _wedge_text(rng, field: str, degree: int) -> str:
    if degree == 0:
        return _q(rng)[1:-1]
    return _sum(rng, [f"w[{', '.join(_entries(rng, field, degree))}]"
                      for _ in range(rng.randint(1, 3))])


def _symbol_text(rng, field: str) -> str:
    var = FIELD_VARS[field]
    degree = rng.randint(0, 2)
    terms = []
    for _ in range(rng.randint(1, 3)):
        arg = rng.choice([_uni(rng, var), f"({var}-{_q(rng)})/({var}+1/4)",
                          rng.choice(["-1", "3", "-2/5", "7"])])
        tail = f" @ w[{', '.join(_entries(rng, field, degree))}]"
        terms.append(f"{{{arg}}}_2" + (tail if degree else ""))
    return _sum(rng, terms)


def _element_text(rng) -> str:
    m = rng.randint(0, 2)
    parts = [f"[{tag}: {_wedge_text(rng, field, m + shift)}]"
             for tag, field, shift in (("S", "Qxy", 2), ("P1", "Qt", 1),
                                       ("pt", "Q", 0)) if rng.random() < 0.7]
    return f"m={m}; " + (_sum(rng, parts) if parts else "0")


def _place_text(rng) -> str:
    return rng.choice([f"t={_q(rng)[1:-1]}", "t=inf", "t^2+1=0", "t^3-2=0",
                       f"t^2-t+{rng.randint(1, 5)}=0",
                       f"2*t-{rng.randint(1, 9)}=0"])


def _divisor_text(rng) -> str:
    a, b = rng.sample(["x", "y"], 2)
    return rng.choice([f"{a}={_q(rng)[1:-1]}", f"{a}=inf", f"{a}={b}",
                       f"{a}={_uni(rng, b)}", f"{a}=({b}-1)/({b}+{_q(rng)})"])


def _cycle_text(rng) -> str:
    coords = ", ".join(rng.choice([_uni(rng, "t"), "t", "1-t", "-3"])
                       for _ in range(rng.randint(1, 3)))
    return rng.choice(["", "-", "3*", "-1/2*"]) + f"cyc[{coords}]"


def _value_type(kind: str, field: str, reg):
    """A seeded text of the type, its parser over `field`, its renderer."""
    return {
        "wedge": (lambda rng: _wedge_text(rng, field, rng.randint(1, 3)),
                  lambda s: parse_wedge(s, reg, field=field), wedge_str),
        "symbol": (lambda rng: _symbol_text(rng, field),
                   lambda s: parse_gamma(s, reg, field=field), gamma_str),
        "element": (_element_text, lambda s: parse_element(s, reg),
                    lambda_str),
        "cycle": (_cycle_text, parse_cycle, str),
        "place": (_place_text, parse_place, str),
        "divisor": (_divisor_text, parse_divisor, str),
    }[kind]


READ_BACK = [("wedge", "Q"), ("wedge", "Qt"), ("wedge", "Qv"),
             ("wedge", "Qxy"), ("symbol", "Qt"), ("symbol", "Qv"),
             ("element", None), ("cycle", "Qt"), ("place", "Qt"),
             ("divisor", "Qxy")]


@pytest.mark.parametrize("kind, field", READ_BACK,
                         ids=[f"{k}-{f}" for k, f in READ_BACK])
def test_every_value_type_reads_back(kind, field):
    """parse(render(v)) == v for 200 nonzero seeded values of each type and
    field. Symbols over Q(v) printed their arguments in t."""
    rng = random.Random(f"read-back-{kind}-{field}")
    text_of, parse, render = _value_type(kind, field, AtomRegistry())
    checked = 0
    while checked < 200:
        v = parse(text_of(rng))
        if getattr(v, "is_zero", False):
            continue
        assert parse(render(v)) == v, render(v)
        checked += 1


INFERRED = [(parse_wedge, "w[2, 3]", "Qt"), (parse_wedge, "w[t, 1-t]", "Qt"),
            (parse_wedge, "w[v, 1-v]", "Qv"), (parse_wedge, "w[x-1, y]", "Qxy"),
            (parse_gamma, "{3}_2", "Qt"),
            (parse_gamma, "{t}_2 (x) w[t-1]", "Qt"),
            (parse_gamma, "{v+2}_2 @ w[v]", "Qv")]


@pytest.mark.parametrize("parse, text, field", INFERRED,
                         ids=[text for _, text, _ in INFERRED])
def test_field_is_inferred_from_the_field_variables(parse, text, field):
    """Without a named field, a text is read over the first field whose
    variables (FIELD_VARS) it holds: Q(x, y), then Q(v), else Q(t); a
    symbol is never over Q(x, y), since "(x)" may mark its tensor."""
    assert parse(text, AtomRegistry()).field == field


# -- the parser against an independent evaluation ---------------------------
# Seeded expression trees are written out as text and evaluated directly on
# Fractions; the parsed value must agree at rational points where every
# node of the tree is defined.

_SUM, _PROD, _NEG, _POW, _ATOM = range(5)   # binding strength of a node's text


def _oracle_tree(rng, names, depth):
    """A random expression tree: nested tuples over ("num", n), ("var", v),
    ("+"|"-"|"*"|"/", a, b), ("neg", a) and ("^", a, e)."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return ("num", rng.randint(0, 12))
        return ("var", rng.choice(names))
    kind = rng.choice(["poly", "poly", "+", "-", "*", "*", "/", "neg", "^"])
    if kind == "poly":   # a sum of monomials of degree up to 8
        terms = []
        for _ in range(rng.randint(1, 4)):
            term = ("/", ("num", rng.randint(1, 9)), ("num", rng.randint(1, 5)))
            for v in names:
                k = rng.randint(0, 8 // len(names))
                if k:
                    term = ("*", term, ("^", ("var", v), k) if k > 1 else ("var", v))
            terms.append(term)
        out = terms[0]
        for term in terms[1:]:
            out = (rng.choice("+-"), out, term)
        return out
    if kind == "neg":
        return ("neg", _oracle_tree(rng, names, depth - 1))
    if kind == "^":
        return ("^", _oracle_tree(rng, names, depth - 1),
                rng.choice([-3, -2, -1, 0, 1, 2, 3]))
    return (kind, _oracle_tree(rng, names, depth - 1),
            _oracle_tree(rng, names, depth - 1))


def _oracle_text(rng, node) -> tuple[str, int]:
    """(text, strength) of a tree in the expression grammar: a child weaker
    than its slot needs, and now and then any child, is parenthesised."""
    def wrap(child, need):
        text, strength = _oracle_text(rng, child)
        if strength < need or rng.random() < 0.1:
            return f"({text})"
        return text

    op = node[0]
    if op == "num":
        return str(node[1]), _ATOM
    if op == "var":
        return node[1], _ATOM
    if op == "neg":
        return "-" + wrap(node[1], _NEG), _NEG
    if op == "^":
        return f"{wrap(node[1], _ATOM)}^{node[2]}", _POW
    space = rng.choice(["", " "])
    if op in "+-":
        return f"{wrap(node[1], _SUM)}{space}{op}{space}{wrap(node[2], _PROD)}", _SUM
    return f"{wrap(node[1], _PROD)}{space}{op}{space}{wrap(node[2], _NEG)}", _PROD


def _oracle_value(node, point: dict) -> Q:
    """The tree evaluated on Fractions; ZeroDivisionError where a node is
    not defined."""
    op = node[0]
    if op == "num":
        return Q(node[1])
    if op == "var":
        return point[node[1]]
    if op == "neg":
        return -_oracle_value(node[1], point)
    if op == "^":
        return _oracle_value(node[1], point) ** node[2]
    a, b = _oracle_value(node[1], point), _oracle_value(node[2], point)
    return {"+": a + b, "-": a - b, "*": a * b}[op] if op != "/" else a / b


_ORACLE_POINTS = [Q(n, d) for n in range(-7, 8) for d in (1, 2, 3, 5)]


def _oracle_corpus(field: str, count: int):
    """count seeded (text, tree) pairs over Q(t) or Q(x, y)."""
    rng = random.Random(f"parser-oracle-{field}")
    names = ["t"] if field == "Qt" else ["x", "y"]
    return [(_oracle_text(rng, tree)[0], tree)
            for tree in (_oracle_tree(rng, names, rng.randint(1, 4))
                         for _ in range(count))]


def _check_against_the_oracle(field: str, count: int) -> int:
    """Parse each text of the corpus and compare it with the tree at 3
    points where the tree is defined; returns how many texts parsed."""
    rng = random.Random(f"parser-oracle-points-{field}")
    parsed = 0
    for text, tree in _oracle_corpus(field, count):
        try:
            value = parse_ratfunc(text) if field == "Qt" else parse_bifrac(text)
        except ParseError:
            continue   # a negative power of zero, a division by zero
        parsed += 1
        checked = 0
        for _ in range(200):
            if field == "Qt":
                point = {"t": rng.choice(_ORACLE_POINTS)}
            else:
                point = {v: rng.choice(_ORACLE_POINTS) for v in ("x", "y")}
            try:
                want = _oracle_value(tree, point)
            except ZeroDivisionError:
                continue
            if field == "Qt":
                got = value.evaluate(point["t"])
            else:
                got = (value.num.evaluate(point["x"], point["y"])
                       / value.den.evaluate(point["x"], point["y"]))
            assert got == want, (text, point)
            checked += 1
            if checked == 3:
                break
        assert checked == 3, text
    return parsed


@pytest.mark.parametrize("field, count", [("Qt", 400), ("Qxy", 200)])
def test_parsed_values_match_an_independent_evaluation(field, count):
    """Over Q(t) and Q(x, y), seeded texts of sums of monomials up to
    degree 8, products, quotients, negative powers, unary minus and nested
    parentheses evaluate, once parsed, to what their trees give on
    Fractions at 3 rational points where every node is defined."""
    assert _check_against_the_oracle(field, count) >= 0.9 * count


def test_carried_degree_bound_is_the_sum_over_the_factors(monkeypatch):
    """Each _Product built while a seeded corpus is parsed (values, wedge
    entries and symbols) carries the degree bound sum(|e| * degree(base))
    of its factors, however it was built: as a leaf, by '*', '/', '^',
    unary '-' or merged()."""
    init = dsl._Product.__init__
    built = []

    def checked(self, factors, *degree):
        init(self, factors, *degree)
        assert self.degree == sum(abs(e) * dsl._degree(b) for b, e in factors)
        built.append(bool(degree))

    monkeypatch.setattr(dsl._Product, "__init__", checked)
    for field in ("Qt", "Qxy"):
        for text, _ in _oracle_corpus(field, 100):
            try:
                parse_ratfunc(text) if field == "Qt" else parse_bifrac(text)
            except ParseError:
                pass
    rng = random.Random("carried-degree-bound")
    reg = AtomRegistry()
    for field in ("Qt", "Qv", "Qxy"):
        for _ in range(50):
            parse_wedge(_wedge_text(rng, field, rng.randint(1, 3)), reg, field=field)
    for _ in range(50):
        parse_gamma(_symbol_text(rng, "Qt"), reg, field="Qt")
    assert len(built) > 10_000 and sum(built) > 1_000


# -- a univariate run of monomials is read in one pass ------------------------
# `dsl._poly_run` reads a sum of monomials in t or v straight to integer
# coefficients. Each text below is parsed with it and with it switched off
# (the grammar alone): the value or the refusal, and the class table of the
# registry, must be the same both ways.

def _read(parse, text):
    """What parse makes of text in a fresh registry: the value, or the
    refusal's type, message (with its position) and position; and the
    registry's class table."""
    reg = AtomRegistry()
    try:
        out = parse(text, reg)
    except (TameSymError, ValueError) as e:
        out = (type(e), str(e), getattr(e, "pos", None))
    return out, reg._classes


def _both_ways(monkeypatch, parse, text):
    """parse(text, reg) with and without the run reader, which must agree;
    the outcome with it."""
    fast = _read(parse, text)
    with monkeypatch.context() as m:
        m.setattr(dsl, "_poly_run", lambda s, ctx: None)
        slow = _read(parse, text)
    assert fast == slow, text
    return fast[0]


def _run_text(rng, var: str, max_exp: int, big: bool) -> str:
    """A signed sum of one to six monomials in var of the five shapes, with
    zero coefficients, exponents 0 to max_exp, whitespace around every
    token and, if big, coefficients above 2^64."""
    ws = lambda: rng.choice(["", "", "", " ", "  ", "\t"])  # noqa: E731
    text = ""
    for i in range(rng.randint(1, 6)):
        c = rng.choice([0, 1, 2, 3, 7, rng.randint(0, 99)]
                       + ([rng.randint(2**64, 2**80)] * 2 if big else []))
        e = rng.choice([0, 1, max_exp, rng.randint(0, max_exp)])
        mono = rng.choice([f"{c}", var, f"{c}{ws()}*{ws()}{var}",
                           f"{var}{ws()}^{ws()}{e}",
                           f"{c}{ws()}*{ws()}{var}{ws()}^{ws()}{e}"])
        sign = rng.choice(["", "", "-"]) if i == 0 else rng.choice("+-")
        text += f"{ws()}{sign}{ws()}{mono}"
    return text + ws()


def _mutated(rng, text: str) -> str:
    """text with one to three characters inserted, deleted or replaced."""
    alphabet = "+-*/^() tv0129²٣\t],=x"
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        text = (text[:i] + rng.choice(alphabet) * (op != 1)
                + text[i + (op > 0):])
    return text


RUN_EDGE_TEXTS = [
    ("w[t^101+1, t]", "power of degree 1 * 101 is above the limit 100", 4),
    ("w[2t+1, t]", "expected ']'", 3),
    ("w[+t-1, t]", "expected a number, a variable, or a parenthesized "
                   "expression", 2),
    ("w[--t+1, t]", None, None),
    ("w[t--1, t]", None, None),
    ("w[t^-1+1, t]", None, None),
    ("w[0*t+0, t]", "wedge entry is identically zero", 2),
    ("w[t^2^3+1,t]", "expected ']'", 5),
    ("w[t²+1, t]", "expected ']'", 3),
    ("w[t+٣, t-1]", None, None),
    ("w[t+1 ) , t]", "expected ']'", 6),
    ("w[1/(t-t), t]", "division by zero", 4),
    ("w[(t-t)^-1, t]", "negative power of zero", 9),
]


@pytest.mark.parametrize("text, message, at", RUN_EDGE_TEXTS,
                         ids=[t for t, _, _ in RUN_EDGE_TEXTS])
def test_run_reader_edge_texts(monkeypatch, text, message, at):
    out = _both_ways(monkeypatch, parse_wedge, text)
    if message is None:
        assert not isinstance(out, tuple), out
    else:
        assert out == (ParseError, f"{message} (at position {at})", at)


def _without_registry(parse, *args):
    """parse(text, *args) as a parser that takes a registry it never uses."""
    return lambda text, reg: parse(text, *args)


def test_run_reader_agrees_with_the_grammar(monkeypatch):
    """Seeded runs over Q(t) and Q(v), alone, in products, quotients and
    powers, as wedge entries and symbol arguments, and mutated runs; places
    and a cycle: the same values, refusals and class tables both ways."""
    rng = random.Random("poly-run")
    for var, field in (("t", "Qt"), ("v", "Qv")):
        ratfunc = _without_registry(parse_ratfunc, var)
        for _ in range(150):
            a, b = (_run_text(rng, var, 100, True) for _ in range(2))
            for text in (a, f"({a})*({b})", f"({a})/({b})", f"-({a})^2",
                         _mutated(rng, a)):
                _both_ways(monkeypatch, ratfunc, text)
        wedge = partial(parse_wedge, field=field)
        for _ in range(60):
            a, b = (_run_text(rng, var, 3, False) for _ in range(2))
            for text in (f"w[{a}, {b}]", f"2*w[({a})*({b}), {var}] - w[{b},{a}]",
                         _mutated(rng, f"w[{a}, {b}]")):
                _both_ways(monkeypatch, wedge, text)
            _both_ways(monkeypatch, partial(parse_gamma, field=field), f"{{{a}}}_2")
    # a number above int()'s digit limit raises the same ValueError both ways
    for text in ("t+" + "7" * 4301, "7" * 4301 + "*t^2+t", "t^101+" + "7" * 4301):
        _both_ways(monkeypatch, _without_registry(parse_ratfunc), text)
    for text in ("t^2+1=0", "t^2 - 2*t + 5 = 0", "t^2-1=0", "2*t-3=0"):
        _both_ways(monkeypatch, _without_registry(parse_place), text)
    cycle = _both_ways(monkeypatch, _without_registry(parse_cycle),
                       "cyc[t, (t-2)/(t-3)]")
    assert str(cycle) == "cyc[t, (t-2)/(t-3)]"
    symbol = _both_ways(monkeypatch, parse_gamma, "{(3*t-3)/(t-3)}_2")
    assert gamma_str(symbol) == "{(3*t-3)/(t-3)}_2"


def test_run_reader_answers_every_ts_text_of_a_session_round(monkeypatch):
    """A reader that silently stopped matching would still agree with the
    grammar: it must answer at least one sum in every ts text of the
    benchmark's session_round(1, 0), and agree there too."""
    answered = []
    poly_run = dsl._poly_run

    def counted(s, ctx):
        val = poly_run(s, ctx)
        answered[-1] += val is not None
        return val

    monkeypatch.setattr(dsl, "_poly_run", counted)
    texts = [op.text for op in gen.session_round(1, 0) if op.verb == "ts"]
    assert texts
    for text in texts:
        answered.append(0)
        parse_wedge(text, AtomRegistry())
    assert min(answered) >= 1, texts[answered.index(min(answered))]
    monkeypatch.undo()
    for text in texts:
        _both_ways(monkeypatch, parse_wedge, text)


def test_a_bivariate_sum_is_bounded_by_its_total_degree(capsys):
    """Q(x, y) sums stay on the grammar: the bound of a side is deg_x +
    deg_y, which exceeds the degree in either variable."""
    from tamesym.cli import main
    assert main(["weil", "w[x^100+y^100+1, x]"]) == 2
    assert capsys.readouterr().err == (
        "weil: sum with a term of degree 200 is above the limit 100 "
        "(at position 13)\n")
