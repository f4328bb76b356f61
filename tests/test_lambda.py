"""The graded surface-curve-point complex and its differential."""

import random
from fractions import Fraction as Q

import pytest

from tamesym import (AtomRegistry, ExceptionalCurve, LambdaElem,
                     NonSplitResidue, NotStrictlyRegular, blowup_as_curve,
                     bs_vanishing_check, d_squared_check, differential,
                     lambda_str, mult_vec, parse_element, parse_ratfunc,
                     parse_wedge, parshin_check, snc_check, tame_symbol,
                     totaro_element, totaro_wedge, wedge_add, wedge_of,
                     wedge_str, weil_sum)


def test_lambda_str_forms():
    reg = AtomRegistry()
    e = parse_element("m=2; [S: w[x-1, y-2, x-y, 5]] - 2*[pt: w[2, 3]]", reg)
    assert lambda_str(e) == "m=2; [S: w[5, y-2, x-1, x-y]] + [pt: -2*w[2, 3]]"
    assert lambda_str(LambdaElem.zero(3)) == "m=3; 0"


def test_differential_moves_down_one_level():
    reg = AtomRegistry()
    e = parse_element("m=2; [S: w[x-1, y-2, x-y, 5]]", reg)
    de = differential(e, reg)
    assert de.surface.is_zero and not de.curve.is_zero
    dde = differential(de, reg)
    assert dde.curve.is_zero
    assert lambda_str(de) == "m=2; [P1: w[5, t-2, t-1]]"


def test_curve_differential_frozen_zero():
    """Three linear slots and no constants: every residue carries two
    constant values whose wedge cancels against the matching place."""
    reg = AtomRegistry()
    e = parse_element("m=2; [P1: w[t-1, t-2, t-3]]", reg)
    assert differential(e, reg).is_zero


def test_d_squared_zero_on_handpicked_elements():
    reg = AtomRegistry()
    for text in ("m=2; [S: w[x-1, y-2, x-y, 5]]",
                 "m=2; [S: w[x-1, y-2, x-y, 5]] + [P1: w[t, t-1, 7]]",
                 "m=3; [S: w[x, y-2, x-y-4, 3, 5]]",
                 "m=2; [S: w[x-1, y-2, x-y, x+y]]"):
        e = parse_element(text, reg)
        assert d_squared_check(e, reg).is_zero, text


def test_d_squared_zero_randomized():
    rng = random.Random(61)
    reg = AtomRegistry()
    for _ in range(15):
        a, b, c = (Q(rng.randint(-5, 5)) for _ in range(3))
        if b == a - c:
            continue  # the diagonal x-y=c would pass through (a, b)
        const = rng.choice([2, 3, 5, 7])
        text = (f"m=2; [S: w[x-{a}, y-{b}, x-y-{c}, {const}]]"
                .replace("--", "+"))
        e = parse_element(text, reg)
        assert d_squared_check(e, reg).is_zero, text


def test_parshin_groups_cancel_pairwise():
    reg = AtomRegistry()
    rep = parshin_check(parse_wedge("w[x-1, y-2, x-y, x+y]", reg), reg)
    assert rep.ok
    by_point = {g.point: g for g in rep.groups}
    assert by_point["(1, -1)"].nonzero == 2
    assert by_point["(-2, 2)"].nonzero == 2
    for g in rep.groups:
        assert g.sum_is_zero and g.nonzero in (0, 2)


def test_parshin_with_constant_slot_vanishes_termwise():
    reg = AtomRegistry()
    rep = parshin_check(parse_wedge("w[x-1, y-2, x-y, 5]", reg), reg)
    assert rep.ok
    assert all(g.nonzero == 0 for g in rep.groups)
    assert [g.point for g in rep.groups] == \
        ["(1, 1)", "(1, 2)", "(1, inf)", "(2, 2)", "(inf, 2)", "(inf, inf)"]


def test_parshin_requires_snc_support():
    reg = AtomRegistry()
    with pytest.raises(NotStrictlyRegular):
        parshin_check(parse_wedge("w[y-x, y-x-1, 3]", reg), reg)


def test_parshin_refuses_chains_through_conjugate_points():
    """w[y-x^2-1, y] is strictly regular and d^2 = 0, but the chains of y=0
    and y=x^2+1 meet at the conjugate points x^2+1 = 0, y = 0, which have no
    rational key: the grouping refuses rather than file them apart."""
    reg = AtomRegistry()
    w = parse_wedge("w[y-x^2-1, y]", reg)
    assert snc_check(w).ok
    assert d_squared_check(LambdaElem.make(0, surface=w), reg).is_zero
    with pytest.raises(NonSplitResidue,
                       match=r"^chain point of y=0 over t\^2\+1=0 lies in a "
                             r"proper extension of Q$"):
        parshin_check(w, reg)


def test_totaro_element_and_differential():
    reg = AtomRegistry()
    e = totaro_element(Q(3), (), reg)
    assert lambda_str(e) == "m=2; [P1: -w[t-3, t-1, t]]"
    de = differential(e, reg)
    want = wedge_of([mult_vec(Q(3), reg, "Q"), mult_vec(Q(-2), reg, "Q")])
    assert de.point == want
    assert lambda_str(de) == "m=2; [pt: -w[2, 3]]"
    e5 = totaro_element(Q(3), (Q(5),), reg)
    assert lambda_str(differential(e5, reg)) == "m=3; [pt: -w[2, 3, 5]]"


def test_totaro_differential_randomized():
    rng = random.Random(62)
    reg = AtomRegistry()
    for _ in range(20):
        a = Q(rng.randint(-9, 9), rng.randint(1, 4))
        if a in (0, 1):
            continue
        consts = tuple(Q(c) for c in
                       rng.sample([2, 3, 5, 7, -2], rng.randint(0, 2)))
        de = differential(totaro_element(a, consts, reg), reg)
        slots = [mult_vec(a, reg, "Q"), mult_vec(1 - a, reg, "Q")]
        slots += [mult_vec(c, reg, "Q") for c in consts]
        assert de.point == wedge_of(slots)
        assert de.curve.is_zero and de.surface.is_zero


def test_totaro_rejects_degenerate_parameter():
    reg = AtomRegistry()
    with pytest.raises(ValueError):
        totaro_wedge(Q(1), (), reg)


def test_bs_vanishing():
    rng = random.Random(63)
    reg = AtomRegistry()
    f = parse_ratfunc("t^2-1")
    g = parse_ratfunc("(t-2)/(t+5)")
    cb = parse_wedge("w[7]", reg, field="Q")
    assert bs_vanishing_check(f, g, cb, reg)
    for _ in range(25):
        r = rng.sample(range(-6, 7), 4)
        f = parse_ratfunc(f"({r[0]+7})*(t-{r[0]})*(t-{r[1]})")
        g = parse_ratfunc(f"(t-{r[2]})/(t-{r[3]})")
        cb = parse_wedge(f"w[{rng.choice([2, 3, 5])}]", reg, field="Q")
        assert bs_vanishing_check(f, g, cb, reg)


def test_blowup_residue_frozen_values():
    reg = AtomRegistry()
    w = parse_wedge("w[x, y, 7]", reg)
    got = tame_symbol(w, ExceptionalCurve(Q(0), Q(0)), reg)
    # v ^ 7 in canonical order: primes sort before the chart coordinate
    assert wedge_str(got) == "-w[7, v]"
    shifted = parse_wedge("w[x-1, y+2, 7]", reg)
    got = tame_symbol(shifted, ExceptionalCurve(Q(1), Q(-2)), reg)
    assert wedge_str(got) == "-w[7, v]"
    assert tame_symbol(shifted, ExceptionalCurve(Q(4), Q(4)), reg).is_zero


def test_blowup_residue_has_zero_curve_differential():
    reg = AtomRegistry()
    w = parse_wedge("w[x, y, 7]", reg)
    curve = blowup_as_curve(tame_symbol(w, ExceptionalCurve(Q(0), Q(0)), reg))
    assert curve.field == "Qt"
    assert weil_sum(curve, reg).is_zero


def test_blowup_additive_in_the_wedge():
    reg = AtomRegistry()
    w1 = parse_wedge("w[x, y, 7]", reg)
    w2 = parse_wedge("w[x, y-1, 3]", reg)
    e = ExceptionalCurve(Q(0), Q(0))
    lhs = tame_symbol(wedge_add(w1, w2), e, reg)
    rhs = wedge_add(tame_symbol(w1, e, reg), tame_symbol(w2, e, reg))
    assert lhs == rhs
