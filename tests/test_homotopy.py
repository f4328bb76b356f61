"""The split-cone decomposition and the lifted reciprocity homotopy."""

import random
from fractions import Fraction as Q

import pytest

from tamesym import (AtomRegistry, RatFunc, UniPoly, decompose, delta,
                     gamma_str, gamma_term, h_map, homotopy_check_sub,
                     homotopy_check_top, mult_vec, nonconstant_count,
                     parse_gamma, parse_wedge, totaro_wedge, tot_gamma,
                     wedge_add, wedge_equal, wedge_of, wedge_scale, wedge_str,
                     weil_sum, Wedge)

EX = "w[t, 1-t, 1-3/t]"


def split_wedge(rng, reg, degree):
    """Random wedge whose slots are constants and linear factors."""
    slots = []
    roots = iter(rng.sample(range(-6, 7), degree))
    for _ in range(degree):
        if rng.random() < 0.75:
            c = Q(rng.choice([2, 3, 5, -2]))
            f = RatFunc.make(UniPoly.make([-next(roots), 1])) \
                * RatFunc.const(c)
            slots.append(mult_vec(f, reg))
        else:
            slots.append(mult_vec(Q(rng.choice([2, 3, 5, 7])), reg, "Qt"))
    w = wedge_of(slots)
    return wedge_scale(w, rng.choice([-2, -1, 1, 1, 3]))


def test_decompose_frozen_example():
    reg = AtomRegistry()
    d = decompose(parse_wedge(EX, reg), reg)
    assert gamma_str(d.preimage) == "-{(3*t-3)/(t-3)}_2 ⊗ w[t-3]"
    assert wedge_str(d.remainder) == \
        "-w[2, 3, t-3] + w[2, t-3, t-1] - w[3, t-3, t]"


def test_decompose_certificate_holds():
    reg = AtomRegistry()
    w = parse_wedge(EX, reg)
    d = decompose(w, reg)
    assert wedge_equal(wedge_add(delta(d.preimage, reg), d.remainder), w)
    assert all(nonconstant_count(key) <= 2 for key, _ in d.remainder.terms)


def test_decompose_randomized_corpus():
    rng = random.Random(71)
    reg = AtomRegistry()
    for _ in range(40):
        w = split_wedge(rng, reg, rng.choice([3, 3, 4]))
        d = decompose(w, reg)
        rebuilt = wedge_add(delta(d.preimage, reg), d.remainder)
        assert wedge_equal(rebuilt, w)
        assert all(nonconstant_count(key) <= 2 for key, _ in d.remainder.terms)


def test_decompose_reduction_order_does_not_matter():
    """A step is linear in the coefficient it removes and its cross terms
    have fewer nonconstant atoms, so every monomial's whole coefficient is
    rewritten in any order: the preimage and the remainder are the same."""
    reg = AtomRegistry()
    w = parse_wedge("w[t, t-1, t-2, t-3] + w[2*t, t-5, t-7, t+1]", reg)
    base = decompose(w, reg)
    assert len(base.preimage.terms) > 1
    for seed in range(20):
        assert decompose(w, reg, random.Random(seed)) == base


def test_decompose_requires_split_slots():
    from tamesym import NonLinearAtom
    reg = AtomRegistry()
    w = parse_wedge("w[t^2+1, t-1, 5]", reg)
    with pytest.raises(NonLinearAtom):
        decompose(w, reg)


def test_h_map_frozen_value():
    reg = AtomRegistry()
    g = h_map(parse_wedge(EX, reg), reg)
    assert gamma_str(g) == "{-2}_2"
    want = gamma_term(-1, Q(3), Wedge.scalar("Q", Q(1)))
    assert g == want


def test_h_map_on_totaro_wedges_is_syntactic():
    reg = AtomRegistry()
    for a, consts in ((Q(3), ()), (Q(5), (Q(7),)), (Q(-2), (Q(2), Q(3)))):
        w = totaro_wedge(a, consts, reg)
        tail_slots = [mult_vec(c, reg, "Q") for c in consts]
        tail = wedge_of(tail_slots) if tail_slots \
            else Wedge.scalar("Q", Q(1))
        assert h_map(w, reg) == gamma_term(-1, a, tail)


def test_lower_triangle_on_frozen_example():
    reg = AtomRegistry()
    rep = homotopy_check_top(parse_wedge(EX, reg), reg)
    assert rep.ok
    assert wedge_str(rep.delta_h) == "w[2, 3]"
    assert wedge_str(rep.weil) == "-w[2, 3]"


def test_lower_triangle_randomized():
    """delta then h cancels the total residue on split wedges."""
    rng = random.Random(72)
    reg = AtomRegistry()
    for _ in range(40):
        w = split_wedge(rng, reg, rng.choice([2, 3]))
        rep = homotopy_check_top(w, reg)
        assert rep.ok
        assert rep.delta_h == wedge_scale(rep.weil, -1)
        assert rep.delta_h == wedge_scale(weil_sum(w, reg), -1)


def test_upper_triangle_on_frozen_example():
    reg = AtomRegistry()
    g = parse_gamma("{(3*t-3)/(t-3)}_2 (x) w[t-3]", reg)
    rep = homotopy_check_sub(g, reg)
    assert rep.ok


def test_upper_triangle_randomized():
    rng = random.Random(73)
    reg = AtomRegistry()
    for i in range(30):
        a, b = rng.sample(range(-5, 6), 2)
        c = rng.choice([2, 3, 5])
        arg = f"({c}*t-{c * a})/(t-{b})".replace("--", "+")
        tail = rng.choice(["w[5]", "w[t-2]", "w[3]"])
        g = parse_gamma(f"{{{arg}}}_2 (x) {tail}", reg)
        rep = homotopy_check_sub(g, reg)
        assert rep.ok, (arg, tail)


def test_h_of_delta_matches_total_residue():
    reg = AtomRegistry()
    g = parse_gamma("{(3*t-3)/(t-3)}_2 (x) w[t-3]", reg)
    lhs = h_map(delta(g, reg), reg)
    rhs = tot_gamma(g, reg)
    assert lhs == rhs
