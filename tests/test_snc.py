"""Strict normal crossing checks on surface supports."""

import random
from fractions import Fraction as Q

import pytest

from tamesym import AtomRegistry, parse_divisor, parse_wedge, snc_check


def check(text):
    reg = AtomRegistry()
    return snc_check(parse_wedge(text, reg, field="Qxy"))


def test_transversal_lines_pass():
    rep = check("w[x-1, y-2, x-y, 5]")
    assert rep.ok
    assert list(rep.problems) == []
    assert rep.candidates_checked == 6


def test_parallel_graphs_touch_at_infinity():
    """y=x and y=x+1 never meet in the affine plane but both pass
    through the corner (inf, inf) with the same slope."""
    rep = check("w[y-x, y-x-1, 3]")
    assert not rep.ok
    (p,) = rep.problems
    assert p.kind == "tangency"
    assert p.where == "(inf, inf)"
    assert p.divisors == ("y=x", "y=x+1")


def test_triple_point_detected():
    rep = check("w[x-1, y-1, x-y]")
    assert not rep.ok
    (p,) = rep.problems
    assert p.kind == "triple"
    assert p.where == "(1, 1)"
    assert p.divisors == ("x=1", "y=1", "y=x")


def test_parabola_tangent_to_axis():
    rep = check("w[y-x^2, y, 3]")
    assert not rep.ok
    (p,) = rep.problems
    assert p.kind == "tangency"
    assert p.where == "(0, 0)"
    assert p.divisors == ("y=0", "y=x^2")


def test_hyperbola_with_axes_is_fine():
    assert check("w[x*y-1, x, y]").ok


def test_accepts_divisor_list():
    rep = snc_check([parse_divisor("y=x"), parse_divisor("y=x+1")])
    assert not rep.ok
    assert rep.problems[0].kind == "tangency"
    rep = snc_check([parse_divisor("x=0"), parse_divisor("y=3")])
    assert rep.ok


def test_random_line_arrangements():
    """Distinct vertical and horizontal lines plus one diagonal are
    strictly regular unless the diagonal passes through a crossing."""
    rng = random.Random(51)
    hits = {True: 0, False: 0}
    for _ in range(40):
        a = rng.randint(-4, 4)
        b = rng.randint(-4, 4)
        c = rng.randint(-4, 4)
        rep = snc_check([parse_divisor(f"x={a}"), parse_divisor(f"y={b}"),
                         parse_divisor(f"y=x+{c}" if c else "y=x")])
        expect = (b != a + c)
        assert rep.ok is expect, (a, b, c)
        hits[expect] += 1
    assert hits[True] and hits[False]


def test_report_lists_divisors_in_order():
    rep = check("w[x-1, y-2, x-y, 5]")
    kinds = [type(d).__name__ for d in rep.divisors]
    assert kinds == ["VLine", "HLine", "GraphY"]


SHARED_Q = ["w[y-x^2-2, y+1, y*(x^2+3)-1]",
            "w[x*(y^2-2)-1, x*(y^2-4)-2, x*(y^2-3)-1]"]


@pytest.mark.parametrize("text", SHARED_Q)
def test_clusters_sharing_q_sort_in_both_orientations(text):
    """Two clusters over one irreducible q, one with an infinite other
    coordinate, must sort; the mirrored wedge gives the mirrored report."""
    rep = check(text)
    swapped = check(text.translate(str.maketrans("xy", "yx")))
    assert (rep.ok, rep.candidates_checked) \
        == (swapped.ok, swapped.candidates_checked)
    assert [p.kind for p in rep.problems] \
        == [p.kind for p in swapped.problems]


def test_clusters_sharing_q_report():
    assert check(SHARED_Q[0]).ok
    rep = check(SHARED_Q[1])
    assert [(p.kind, p.where) for p in rep.problems] \
        == [("tangency", "(-1/2, 0)"), ("triple", "(0, inf)")]
    rep = check(SHARED_Q[1].translate(str.maketrans("xy", "yx")))
    assert [(p.kind, p.where) for p in rep.problems] \
        == [("tangency", "(0, -1/2)"), ("triple", "(inf, 0)")]
