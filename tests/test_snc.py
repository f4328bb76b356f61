"""Strict normal crossing checks on surface supports."""

import random
from fractions import Fraction as Q
from itertools import permutations

import pytest

from tamesym import (AtomRegistry, BiPoly, Inconclusive, RatFunc,
                     defining_bipoly, mult_vec, parse_wedge, snc, snc_check)
from tamesym.expressions import INF
from tamesym.places import (Chart, LineInf, finite_support_divisors,
                            point_key, point_str, solved_divisor)
from tamesym.polynomials import UniPoly, factor_uni
from tamesym.snc import (Cluster, SncProblem, SncReport, _boundary_candidates,
                         _equation, _jacobian_det, _pair_candidates,
                         _vanishes_at_point, _vanishes_on_cluster)


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
        divisors, table = finite_support_divisors(w), {}
        for d1, d2 in permutations(divisors, 2):
            points, clusters = _pair_candidates(d1, d2, table=table)
            for pt in points:
                assert _vanishes_at_point(pt, _equation, d1, table=table) \
                    and _vanishes_at_point(pt, _equation, d2, table=table), \
                    (text, str(d1), str(d2), pt)
            for cl in clusters:
                assert _vanishes_on_cluster(cl, _equation, d1, table=table) \
                    and _vanishes_on_cluster(cl, _equation, d2, table=table), \
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


def test_each_chart_equation_is_built_once_per_call(monkeypatch):
    """One table per `snc_check` call: each divisor's equation in each chart
    and each pair's Jacobian determinant is built once, and a second call
    builds them again (no state outlives a call)."""
    w = parse_wedge("w[y-x^2, y, x-1, y-x-1, x*(y^2-2)-1]", AtomRegistry(),
                    field="Qxy")
    charts, jacobians = [], []
    equation, jacobian_det = Chart.equation, snc._jacobian_det

    def counted_chart(chart, g):
        charts.append((chart, g))
        return equation(chart, g)

    def counted_jacobian(g1, g2):
        jacobians.append((g1, g2))
        return jacobian_det(g1, g2)

    monkeypatch.setattr(Chart, "equation", counted_chart)
    monkeypatch.setattr(snc, "_jacobian_det", counted_jacobian)
    rep = snc_check(w)
    once = (len(charts), len(jacobians))
    assert snc_check(w) == rep
    monkeypatch.undo()
    assert rep == snc_check(w)
    assert [(p.kind, p.where) for p in rep.problems] == [("tangency", "(0, 0)")]
    assert once == (30, 11)
    assert all(charts.count(c) == 2 for c in charts)
    assert all(jacobians.count(j) == 2 for j in jacobians)


def _ref_evaluate(g, a, b):
    return sum((c * a**i * b**j for (i, j), c in g.terms), Q(0))


def _ref_chart(d, x_inf, y_inf):
    """d's equation in the chart u = 1/x where x_inf, v = 1/y where y_inf:
    each inverted coordinate's exponents reflected in its degree."""
    g = defining_bipoly(d)
    dx, dy = g.deg_x, g.deg_y
    return BiPoly.make({(dx - i if x_inf else i, dy - j if y_inf else j): c
                        for (i, j), c in g.terms})


def _ref_vanishes(cand, rule, *ds):
    """The one rule with every chart equation built afresh for each
    candidate, and evaluated as a Fraction sum."""
    if isinstance(cand, Cluster):
        if cand.axis == "y":
            return _ref_vanishes(cand.mirror(), rule, *(d.mirror() for d in ds))
        y_inf = cand.expr is None
        g = rule(*(_ref_chart(d, False, y_inf) for d in ds))
        if y_inf:  # the y^0 column, g(x, 0)
            col = {i: c for (i, j), c in g.terms if j == 0}
            g0 = UniPoly.make([col.get(i, Q(0))
                               for i in range(max(col, default=-1) + 1)])
            return (g0 % cand.q).is_zero
        return (g.eval_y_ratfunc(cand.expr.num, cand.expr.den) % cand.q).is_zero
    x_inf, y_inf = cand[0] is INF, cand[1] is INF
    g = rule(*(_ref_chart(d, x_inf, y_inf) for d in ds))
    return _ref_evaluate(g, Q(0) if x_inf else cand[0],
                         Q(0) if y_inf else cand[1]) == 0


def _ref_snc_check(w):
    divisors = finite_support_divisors(w)
    points, clusters = set(), set()
    found = [_boundary_candidates(d) for d in divisors]
    found += [_pair_candidates(d1, d2, table={}) for i, d1 in enumerate(divisors)
              for d2 in divisors[i + 1:]]
    for pts, cls in found:
        points.update(pts)
        clusters.update(cls)
    problems = []
    for cand, describe in [(pt, point_str) for pt in sorted(points, key=point_key)] \
            + [(cl, str) for cl in sorted(clusters, key=Cluster.sort_key)]:
        members = [d for d in divisors if _ref_vanishes(cand, _equation, d)]
        if len(members) >= 3:
            kind = "triple"
        elif len(members) == 2 and _ref_vanishes(cand, _jacobian_det, *members):
            kind = "tangency"
        else:
            continue
        problems.append(SncProblem(kind, describe(cand),
                                   tuple(str(d) for d in members)))
    return SncReport(not problems, divisors, problems, len(points) + len(clusters))


def test_snc_check_matches_a_reference_that_rebuilds_every_chart():
    """The per-call table and the integer evaluation change no report:
    seeded surface texts of 2-5 divisors give the same `SncReport`,
    candidates checked and order of problems included."""
    rng = random.Random(20261020)
    tally = {"yes": 0, "no": 0, "refused": 0, "problems": 0, "candidates": 0}
    for _ in range(320):
        text = "w[" + ", ".join(_piece(rng)
                                for _ in range(rng.randint(2, 5))) + "]"
        w = parse_wedge(text, AtomRegistry(), field="Qxy")
        try:
            want = _ref_snc_check(w)
        except Inconclusive:
            with pytest.raises(Inconclusive):
                snc_check(w)
            tally["refused"] += 1
            continue
        assert snc_check(w) == want, text
        tally["yes" if want.ok else "no"] += 1
        tally["problems"] += len(want.problems)
        tally["candidates"] += want.candidates_checked
    assert tally["yes"] and tally["no"] and tally["problems"] > tally["no"], tally


def _ref_line_order(g, var):
    """Order of g along the line var = inf: minus its degree in var."""
    return -(g.deg_x if var == "x" else g.deg_y)


def _ref_line_leading(g, var):
    """g's leading coefficient in var, a polynomial in the other coordinate."""
    return (g.swap_xy() if var == "x" else g).y_coefficients()[-1]


def _seeded_graph(rng):
    """var = num/den over either coordinate; den is a product of linear
    factors and at most one irreducible quadratic, num of degree 0-3."""
    den = UniPoly.make([rng.choice([1, 2, -3])])
    for _ in range(rng.randint(0, 2)):
        den = den * UniPoly.make([Q(rng.randint(-4, 4), rng.choice([1, 2])), 1])
    if rng.random() < 0.5:
        den = den * UniPoly.make([rng.choice([1, 2, 3, -2, -3]), 0, 1])
    num = UniPoly.make([Q(rng.randint(-6, 6), rng.choice([1, 3]))
                        for _ in range(rng.randint(1, 4))])
    if num.is_zero:
        num = UniPoly.make([1])
    return solved_divisor(rng.choice("xy"), RatFunc.make(num, den))


def test_lines_at_infinity_read_graphs_through_their_charts():
    """For seeded graphs d over x and over y and both lines L at infinity:
    L's order of d's atom is minus its degree in L's coordinate, L's unit
    class is that of its leading coefficient, and the rational roots and
    irreducible factors of the leading layer of d's equation in L's chart
    are d's boundary candidates on L with a finite parameter."""
    rng = random.Random(20261021)
    reg = AtomRegistry()
    tally = {"x": 0, "y": 0, "roots": 0, "factors": 0}
    for _ in range(150):
        d = _seeded_graph(rng)
        tally[d.var] += 1
        atom = reg.bi(d.equation_atom)
        points, clusters = _boundary_candidates(d)
        for line in (LineInf("x"), LineInf("y")):
            var = line.var
            assert line.order(atom) == _ref_line_order(atom.poly, var), str(d)
            assert line.unit(atom, reg) == mult_vec(
                RatFunc.make(_ref_line_leading(atom.poly, var)), reg, "Qt"), str(d)
            layer = line.chart.leading(defining_bipoly(d))
            assert line.chart.order(defining_bipoly(d)) == line.order(atom)
            factors = factor_uni(layer)[1] if layer.degree > 0 else []
            roots = {-p.coeff(0) for p, _ in factors if p.degree == 1}
            hard = {p for p, _ in factors if p.degree > 1}
            on_line = [pt[::-1] if var == "x" else pt for pt in points]
            assert roots == {s for s, t in on_line
                             if t is INF and s is not INF}, (str(d), var)
            assert hard == {cl.q for cl in clusters
                            if cl.expr is None and cl.axis != var}, (str(d), var)
            tally["roots"] += len(roots)
            tally["factors"] += len(hard)
    assert all(tally.values()), tally
