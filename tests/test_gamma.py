"""Dilogarithm symbols, the five-term element, and weight-two residues."""

import random
from fractions import Fraction as Q

import pytest

from tamesym import (INF, AtomRegistry, DegenerateArgument, NonSplitResidue,
                     NotDistinct, RatFunc, Wedge, cross_ratio, delta,
                     five_term, gamma_add, gamma_scale, gamma_str, gamma_term,
                     parse_gamma, parse_place, tame_symbol, tot_gamma,
                     ts_gamma, wedge_str, wedge_scale, weil_sum)
from tamesym.gamma import _orbit, b2_normalize
from tamesym.polynomials import UniPoly

ONE = Wedge.scalar("Q", Q(1))


def term(x):
    return gamma_term(1, Q(x), ONE)


def test_b2_normalize_known_values():
    assert b2_normalize(Q(3)) == (-1, Q(-2))
    assert b2_normalize(Q(5)) == (-1, Q(-4))
    assert b2_normalize(Q(-2)) == (1, Q(-2))


def test_b2_torsion_orbit_collapses():
    """The orbit {2, 1/2, -1} is fixed by the six-fold symmetry up to
    sign, so those symbols are torsion and normalize away."""
    for x in (Q(2), Q(1, 2), Q(-1)):
        assert b2_normalize(x) is None
        assert term(x).is_zero


def test_b2_degenerate_arguments_raise():
    with pytest.raises(DegenerateArgument):
        b2_normalize(Q(0))
    with pytest.raises(DegenerateArgument):
        gamma_term(1, Q(1), ONE)
    # 1 as a rational function; 1 - x was formed first and refused as
    # OneMinusOfOne
    for x in (RatFunc.const(1), RatFunc.var() / RatFunc.var(),
              RatFunc.const(0)):
        with pytest.raises(DegenerateArgument):
            b2_normalize(x)
        with pytest.raises(DegenerateArgument):
            parse_gamma(f"{{{x}}}_2", AtomRegistry())


def test_orbit_closed_forms_match_ratfunc_arithmetic():
    """The six images of x, written as ratios of n, d and d - n, equal
    1/x, 1 - x, ... computed by RatFunc arithmetic (gcd and all)."""
    rng = random.Random(404)
    one = RatFunc.const(1)
    seen = 0
    for _ in range(150):
        num = [Q(rng.randint(-5, 5), rng.randint(1, 3))
               for _ in range(rng.randint(1, 4))]
        den = [Q(rng.randint(-5, 5), rng.randint(1, 3))
               for _ in range(rng.randint(0, 3))] + [rng.choice([1, 2, -3])]
        x = RatFunc.make(UniPoly.make(num), UniPoly.make(den))
        if x.constant_value() is not None:
            continue
        seen += 1
        omx = one - x
        expected = [(x, 1), (one / x, -1), (omx, -1), (one / omx, 1),
                    ((x - one) / x, 1), (x / (x - one), -1)]
        assert list(_orbit(x)) == expected
    assert seen > 100


def test_two_term_relations_hold_after_normalization():
    rng = random.Random(41)
    count = 0
    for _ in range(200):
        x = Q(rng.randint(-30, 30), rng.randint(1, 9))
        if x in (0, 1) or b2_normalize(x) is None:
            continue
        count += 1
        assert gamma_add(term(x), term(1 / x)).is_zero
        assert gamma_add(term(x), term(1 - x)).is_zero
    assert count > 100


def test_gamma_str_forms():
    g = gamma_term(-1, Q(-4), ONE)
    assert gamma_str(g) == "-{-4}_2"
    assert gamma_str(gamma_scale(g, 3)) == "-3*{-4}_2"
    assert gamma_str(gamma_add(g, gamma_scale(g, -1))) == "0"
    reg = AtomRegistry()
    g2 = parse_gamma("-{(3*t-3)/(t-3)}_2 (x) w[t-3]", reg)
    assert gamma_str(g2) == "-{(3*t-3)/(t-3)}_2 ⊗ w[t-3]"


def test_cross_ratio_values():
    assert cross_ratio(Q(0), Q(1), Q(2), Q(3)) == Q(4, 3)
    rng = random.Random(42)
    for _ in range(30):
        x = Q(rng.randint(2, 40), rng.randint(1, 7))
        assert cross_ratio(Q(0), INF, Q(1), x) == 1 / x


def test_cross_ratio_mobius_invariance():
    """The cross ratio only depends on the four points up to a shared
    fractional-linear change of coordinate."""
    rng = random.Random(43)

    def moebius(p, a, b, c, d):
        if p is INF:
            return INF if c == 0 else Q(a, c)
        den = c * p + d
        return INF if den == 0 else (a * p + b) / den

    for _ in range(40):
        pts = rng.sample(range(-8, 9), 4)
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c == 0:
            continue
        moved = [moebius(Q(p), a, b, c, d) for p in pts]
        if len({str(m) for m in moved}) < 4:
            continue
        assert cross_ratio(*(Q(p) for p in pts)) == cross_ratio(*moved)


def test_five_term_frozen_example():
    g = five_term(Q(0), Q(1), Q(3), Q(7), INF)
    assert gamma_str(g) == "-{-6}_2 - {-7/2}_2 + {-4/3}_2"
    reg = AtomRegistry()
    assert delta(g, reg).is_zero


def test_five_term_in_delta_kernel_randomized():
    rng = random.Random(44)
    reg = AtomRegistry()
    pool = sorted({Q(n, d) for n in range(-9, 10) for d in (1, 2, 3)})
    for _ in range(50):
        pts = rng.sample(pool, 5)
        if rng.random() < 0.3:
            pts[rng.randrange(5)] = INF
        assert delta(five_term(*pts), reg).is_zero


def test_five_term_requires_distinct_points():
    with pytest.raises(NotDistinct):
        five_term(Q(0), Q(1), Q(3), Q(3), INF)


def test_delta_frozen_value():
    reg = AtomRegistry()
    g = parse_gamma("{(3*t-3)/(t-3)}_2 (x) w[t-3]", reg)
    assert wedge_str(delta(g, reg)) == \
        "-w[2, 3, t-3] + w[2, t-3, t-1] - w[3, t-3, t] + w[t-3, t-1, t]"
    assert wedge_str(delta(gamma_scale(g, -2), reg)) == \
        "2*w[2, 3, t-3] - 2*w[2, t-3, t-1] + 2*w[3, t-3, t] - 2*w[t-3, t-1, t]"


def test_ts_gamma_frozen_values():
    reg = AtomRegistry()
    g = parse_gamma("{(3*t-3)/(t-3)}_2 (x) w[t-3]", reg)
    assert gamma_str(ts_gamma(g, parse_place("t=inf"), reg)) == "-{-2}_2"
    assert ts_gamma(g, parse_place("t=2"), reg).is_zero
    # argument not a unit at t=3, so the term dies there
    assert ts_gamma(g, parse_place("t=3"), reg).is_zero


def test_ts_gamma_at_a_quadratic_place():
    """At t^2+1=0 an argument with a zero or a pole there contributes
    nothing, though its tail's residue is 1; a unit argument's value lies
    in Q(i), and the residue is refused."""
    reg = AtomRegistry()
    v = parse_place("t^2+1=0")
    q = UniPoly.make([1, 0, 1])
    for text, zero in (("{-(t^2+1)/t^2}_2 @ w[t^2+1]", True),
                       ("{(t-2)/(t^2+1)}_2 @ w[t^2+1]", False)):
        g = parse_gamma(text, reg)
        (x, _), _ = g.terms[0]  # the stored representative
        assert ((x.num if zero else x.den) % q).is_zero
        assert ts_gamma(g, v, reg).is_zero, text
    with pytest.raises(NonSplitResidue):
        ts_gamma(parse_gamma("{(t-1)/(t-2)}_2 @ w[t^2+1]", reg), v, reg)


def test_ts_gamma_on_scalar_tail_is_zero():
    reg = AtomRegistry()
    g = gamma_term(1, Q(-4), ONE)
    assert ts_gamma(g, parse_place("t=2"), reg).is_zero


def test_residue_anticommutes_with_delta():
    """Taking the symbol after delta equals minus delta after the
    weight-two residue, place by place."""
    reg = AtomRegistry()
    g = parse_gamma("{(3*t-3)/(t-3)}_2 (x) w[t-3]", reg)
    for spelling in ("t=inf", "t=0", "t=1", "t=2", "t=5"):
        v = parse_place(spelling)
        lhs = delta(ts_gamma(g, v, reg), reg)
        rhs = wedge_scale(tame_symbol(delta(g, reg), v, reg), -1)
        assert lhs == rhs, spelling


def test_total_residue_anticommutes_with_delta():
    reg = AtomRegistry()
    g = parse_gamma("{(3*t-3)/(t-3)}_2 (x) w[t-3] + 2*{-5}_2 @ w[t-1]", reg)
    lhs = delta(tot_gamma(g, reg), reg)
    rhs = wedge_scale(weil_sum(delta(g, reg), reg), -1)
    assert lhs == rhs
