"""Cubical curves, admissibility, boundaries, and the comparison map."""

import random
from fractions import Fraction as Q

import pytest

from tamesym import (AtomRegistry, CoordinateIdenticallyFace, CubeCurve,
                     NotAdmissible, admissible_check, cube_boundary,
                     differential, lambda_str, parse_cycle, parse_ratfunc,
                     w_commutes_check, w_map)
from tamesym.chow import w_map_curve, w_map_point

GOOD = "cyc[2*(t-1)/(t-3), 5*(t-2)/(t-4)]"
BAD = "cyc[t, 1-t, 1-3/t]"


def test_cycle_parse_and_str():
    z = parse_cycle(GOOD)
    assert z.n == 2 and z.coeff == 1
    assert str(z) == "cyc[(2*t-2)/(t-3), (5*t-10)/(t-4)]"
    z3 = parse_cycle("-3*cyc[t, t-1]")
    assert z3.coeff == -3


def test_identically_face_coordinates_rejected():
    with pytest.raises(CoordinateIdenticallyFace):
        CubeCurve.make([parse_ratfunc("1"), parse_ratfunc("t")])
    with pytest.raises(CoordinateIdenticallyFace):
        CubeCurve.make([parse_ratfunc("0"), parse_ratfunc("t")])


def test_admissible_check_good_and_bad():
    ok, problems = admissible_check(parse_cycle(GOOD))
    assert ok and problems == []
    ok, problems = admissible_check(parse_cycle(BAD))
    assert not ok
    assert any("t=inf" in p or "both" in p for p in problems)


def test_boundary_of_the_good_curve():
    """Each coordinate contributes its zero and pole, evaluated through
    the other coordinate, with the cubical sign convention."""
    reg = AtomRegistry()
    pts = cube_boundary(parse_cycle(GOOD), reg)
    seen = {(p.values, p.coeff) for p in pts}
    assert seen == {((Q(5, 3),), Q(1)), ((Q(-5),), Q(-1)),
                    ((Q(-2),), Q(-1)), ((Q(6),), Q(1))}
    assert all(not p.touches_one for p in pts)


def test_boundary_raises_on_non_admissible_input():
    reg = AtomRegistry()
    with pytest.raises(NotAdmissible):
        cube_boundary(parse_cycle(BAD), reg)


def test_boundary_flags_points_touching_one():
    reg = AtomRegistry()
    # second coordinate equals 1 where the first vanishes (at t = 1)
    z = parse_cycle("cyc[3*(t-1)/(t-4), (t+3)/(2*t+2)]")
    pts = cube_boundary(z, reg)
    flagged = [p for p in pts if p.touches_one]
    assert flagged and flagged[0].values == (Q(1),)


def test_w_map_is_defined_even_off_admissibility():
    """The comparison map itself only needs the coordinates; it is the
    boundary that requires admissibility. This pair documents why the
    square can only be asked to commute on admissible input."""
    reg = AtomRegistry()
    e = w_map_curve(parse_cycle(BAD), reg)
    assert not e.curve.is_zero
    with pytest.raises(NotAdmissible):
        cube_boundary(parse_cycle(BAD), reg)


def test_w_map_frozen_render():
    reg = AtomRegistry()
    e = w_map(parse_cycle(GOOD), reg)
    assert lambda_str(e) == (
        "m=1; [P1: w[2, 5] - w[2, t-4] + w[2, t-2] + w[5, t-3] - w[5, t-1]"
        " - w[t-4, t-3] + w[t-4, t-1] - w[t-3, t-2] - w[t-2, t-1]]")


def test_square_commutes_on_the_good_curve():
    reg = AtomRegistry()
    rep = w_commutes_check(parse_cycle(GOOD), reg)
    assert rep.ok
    assert rep.lhs == rep.rhs


def test_square_commutes_on_handpicked_curves():
    reg = AtomRegistry()
    for text in ("cyc[5*(t-2)/(t-4), 3]",
                 "2*cyc[2*(t-1)/(t-3), 5*(t-2)/(t-4), 7]",
                 "cyc[3*(t+1)/(t-1), 2*(t-2)/(t+2), 7*(t-5)/(t+5)]"):
        z = parse_cycle(text)
        ok, problems = admissible_check(z)
        assert ok, (text, problems)
        rep = w_commutes_check(z, reg)
        assert rep.ok, text
        # both sides are computed independently; compare renders too
        lhs = differential(w_map_curve(z, reg), reg)
        assert lambda_str(lhs) == lambda_str(rep.rhs)


def test_w_map_point_lands_in_the_point_part():
    reg = AtomRegistry()
    pts = cube_boundary(parse_cycle(GOOD), reg)
    assert pts
    for p in pts:
        e = w_map_point(p, reg)
        assert e.m == 1
        assert e.surface.is_zero and e.curve.is_zero
        assert e.point.degree == 1


def test_w_map_scales_with_the_cycle_coefficient():
    from tamesym import wedge_scale
    reg = AtomRegistry()
    e1 = w_map(parse_cycle(GOOD), reg)
    e2 = w_map(parse_cycle("2*" + GOOD), reg)
    assert e2.curve == wedge_scale(e1.curve, 2)
