"""Strict normal crossing checks on surface supports."""

import random
from fractions import Fraction as Q
from itertools import permutations

import pytest

from tamesym import (AtomRegistry, BiPoly, RatFunc, defining_bipoly,
                     parse_wedge, snc_check)
from tamesym.places import finite_support_divisors, solved_divisor
from tamesym.snc import (_equation, _pair_candidates, _vanishes_at_point,
                         _vanishes_on_cluster)


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


def test_line_pairs_as_wedges():
    rep = check("w[y-x, y-x-1]")
    assert not rep.ok
    assert rep.problems[0].kind == "tangency"
    rep = check("w[x, y-3]")
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
        rep = check(f"w[x-({a}), y-({b}), y-x-({c})]")
        expect = (b != a + c)
        assert rep.ok is expect, (a, b, c)
        hits[expect] += 1
    assert hits[True] and hits[False]


def test_report_lists_divisors_in_order():
    rep = check("w[x-1, y-2, x-y, 5]")
    assert [str(d) for d in rep.divisors] == ["x=1", "y=2", "y=x"]


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


@pytest.mark.parametrize("text, problems", [
    ("w[y*(x^2-2)-1, y*(x^2-2)-x]", []),
    ("w[y*(x^2-2)-1, y*(x^2-2)-x^2+1]", [("tangency", "(x^2-2=0, y=inf)")]),
    ("w[x*(y^2-2)-1, x*(y^2-2)-y^2+1]", [("tangency", "(x=inf, y^2-2=0)")])])
def test_graphs_sharing_an_irrational_pole(text, problems):
    """Two graphs with the pole q = 0 in common meet over it on the line at
    infinity, where they cross or touch; that cluster comes from each
    graph's boundary, and the pair adds none of its own."""
    rep = check(text)
    assert [(p.kind, p.where) for p in rep.problems] == problems
    assert rep.candidates_checked == 3


SWAP = str.maketrans("xy", "yx")


def _piece(rng):
    """A line, slanted line, graph x*(y^2-k) - c with irrational poles or
    parabola, in either orientation."""
    a = Q(rng.randint(-5, 5), rng.choice([1, 1, 2, 3])) or 1
    b = Q(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
    k = rng.choice([2, 3, 5, -1, -2])
    text = rng.choice([f"y-({b})", f"y-({a})*x-({b})",
                       f"x*(y^2-({k}))-({a})", f"y-({a})*x^2-({b})"])
    return text.translate(SWAP) if rng.random() < 0.5 else text


def test_pair_candidates_lie_on_both_divisors():
    """Every point and cluster a pair of support divisors yields is on
    both of them, in either order of the pair; no golden pins the
    candidates that are not problem sites."""
    rng = random.Random(20261019)
    counts = {"points": 0, "clusters": 0}
    for _ in range(300):
        text = "w[" + ", ".join(_piece(rng)
                                for _ in range(rng.randint(2, 4))) + "]"
        w = parse_wedge(text, AtomRegistry(), field="Qxy")
        divisors = finite_support_divisors(w)
        for d1, d2 in permutations(divisors, 2):
            points, clusters = _pair_candidates(d1, d2)
            for pt in points:
                assert _vanishes_at_point(pt, _equation, d1) \
                    and _vanishes_at_point(pt, _equation, d2), \
                    (text, str(d1), str(d2), pt)
            for cl in clusters:
                assert _vanishes_on_cluster(cl, _equation, d1) \
                    and _vanishes_on_cluster(cl, _equation, d2), \
                    (text, str(d1), str(d2), str(cl))
            counts["points"] += len(points)
            counts["clusters"] += len(clusters)
    assert all(counts.values()), counts


@pytest.mark.parametrize("var", ["x", "y"])
@pytest.mark.parametrize("c", [Q(0), Q(-1, 2), Q(3)])
def test_line_is_the_graph_of_a_constant(var, c):
    """var = c renders as a line, sorts before every nonconstant graph
    (head 0 for x, 1 for y) and is cut out by var - c."""
    d = solved_divisor(var, RatFunc.const(c))
    assert str(d) == f"{var}={c}"
    assert d.sort_key() == (0 if var == "x" else 1, c)
    v = BiPoly.var_x() if var == "x" else BiPoly.var_y()
    assert defining_bipoly(d) == v - BiPoly.const(c)
