"""Strict normal crossing checker for configurations of rational divisors
on the product of two projective lines.

Every divisor in the supported vocabulary (graphs of rational functions
in either direction, a vertical or horizontal line being the graph of a
constant) is smooth, so the two things that can go wrong are a
non-transversal pairwise meeting and three or more divisors through one
point. The checker enumerates a finite candidate set that provably
contains every intersection point: pairwise finite solutions plus all
boundary points (where a divisor meets the infinity lines). Once one
divisor of a pair, y = phi(x), solves for y, x solves the other's own
equation along it, g2(x, phi(x)) = 0 with phi's denominator cleared.

Members are the closures of the finite divisors; the lines at infinity
are not members. Every question is asked by one rule: build a polynomial
from the divisors' equations in the affine `places.Chart` of the
candidate (the equation itself for membership, the Jacobian determinant
of two for transversality) and ask whether it vanishes there. One
`snc_check` call keeps a table of these rule polynomials, keyed by (rule,
divisors, chart), so each divisor's chart equation and each pair's Jacobian
determinant is built once per call however many candidates ask, beside the
grid of its stored integer coefficients; the table is dropped when the
call returns. Every question reads that grid: a rational candidate by
`grid_value`, one integer Horner pass that builds no Fraction, and a
substitution y = num/den (`_pair_candidates` along a divisor, and a
cluster's other coordinate) by `grid_at_y`, which builds none either.

Points with algebraic coordinates are handled as clusters: an irreducible
polynomial q together with the other coordinate expressed as a rational
function of the first (or the infinite marker). The polynomial vanishes on
a cluster when it does so modulo q once the other coordinate is substituted,
which settles all conjugate points at once.

Configurations mirrored by (x, y) -> (y, x) share one code path: a
cluster over y, and a boundary or pair whose divisors all solve for x
(var = "x"), are mirrored (`mirror()` on the cluster and the divisors)
into the case with parameter x, and the points found are swapped back
before they are recorded. Points are ordered and printed by
`places.point_key` and `places.point_str`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expressions import INF, RatFunc, ratfunc_str
from .places import (Chart, SurfDivisor, defining_bipoly,
                     finite_support_divisors, point_key, point_str)
from .polynomials import (BiPoly, UniPoly, factor_uni, grid_at_y, grid_value,
                          poly_str)
from .wedges import Wedge

Q = Fraction


@dataclass(frozen=True)
class Cluster:
    """Conjugate points over the roots of q in the coordinate `axis`: for
    axis "x" the points (xi, expr(xi)) over the roots xi of q, for axis "y"
    their mirror images (expr(eta), eta). An expr of None marks the other
    coordinate as infinite on the whole cluster."""

    axis: str
    q: UniPoly
    expr: RatFunc | None

    def sort_key(self) -> tuple:
        ek = (1,) if self.expr is None else (0,) + self.expr.key()
        return (2 if self.axis == "x" else 3, self.q.key(), ek)

    def mirror(self) -> "Cluster":
        return Cluster("y" if self.axis == "x" else "x", self.q, self.expr)

    def __str__(self) -> str:
        other = "inf" if self.expr is None else ratfunc_str(self.expr, self.axis)
        if self.axis == "x":
            return f"({poly_str(self.q, 'x')}=0, y={other})"
        return f"(x={other}, {poly_str(self.q, 'y')}=0)"


def _mirrored(found: tuple[list, list]) -> tuple[list, list]:
    """Points and clusters found on mirrored divisors, swapped back."""
    points, clusters = found
    return [(b, a) for a, b in points], [cl.mirror() for cl in clusters]


@dataclass(frozen=True)
class SncProblem:
    kind: str  # "tangency" or "triple"
    where: str
    divisors: tuple[str, ...]


@dataclass
class SncReport:
    ok: bool
    divisors: list[SurfDivisor]
    problems: list[SncProblem]
    candidates_checked: int


# ---------------------------------------------------------------------------
# one rule: does a chart polynomial vanish at the candidate?
# ---------------------------------------------------------------------------


# the affine charts, keyed by (x_inf, y_inf): x = 1/u where x_inf, else u
_AFFINE = {(xi, yi): Chart(((-1 if xi else 1, 0), (0, -1 if yi else 1)))
           for xi in (False, True) for yi in (False, True)}


def _equation(g: BiPoly) -> BiPoly:
    """The membership polynomial: a divisor's chart equation itself."""
    return g


def _jacobian_det(g1: BiPoly, g2: BiPoly) -> BiPoly:
    """The transversality polynomial of two divisors' chart equations."""
    return g1.partial_x() * g2.partial_y() - g1.partial_y() * g2.partial_x()


def _rule_entry(table: dict, rule, ds: tuple,
                chart: Chart) -> tuple[BiPoly, list[list[int]]]:
    """rule(chart equations of ds) and the grid of its stored integers
    (`BiPoly.int_columns`, which converts nothing), built once per table:
    the table is keyed by (rule, divisors, chart), and a divisor's chart
    equation is its `_equation` entry."""
    key = (rule, ds, chart)
    if key not in table:
        if rule is _equation:
            g = chart.equation(defining_bipoly(ds[0]))
        else:
            g = rule(*[_rule_entry(table, _equation, (d,), chart)[0] for d in ds])
        table[key] = g, g.int_columns()[1]
    return table[key]


def _vanishes_at_point(pt, rule, *ds: SurfDivisor, table: dict) -> bool:
    """rule(chart equations of ds) vanishes at the rational point pt: its
    grid, read from table, has a homogenised value of 0 there."""
    x_inf, y_inf = pt[0] is INF, pt[1] is INF
    cols = _rule_entry(table, rule, ds, _AFFINE[x_inf, y_inf])[1]
    return not cols or not grid_value(cols, Q(0) if x_inf else pt[0],
                                      Q(0) if y_inf else pt[1])


def _vanishes_on_cluster(cl: Cluster, rule, *ds: SurfDivisor, table: dict) -> bool:
    """rule(chart equations of ds) vanishes on the cluster: with the other
    coordinate substituted into its grid, read from table, 0 in the chart
    v = 1/y where it is infinite, it is 0 modulo q."""
    if cl.axis == "y":
        return _vanishes_on_cluster(cl.mirror(), rule,
                                    *(d.mirror() for d in ds), table=table)
    y_inf = cl.expr is None
    cols = _rule_entry(table, rule, ds, _AFFINE[False, y_inf])[1]
    other = RatFunc.const(0) if y_inf else cl.expr
    return (grid_at_y(cols, other.num, other.den) % cl.q).is_zero


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------


def _roots_and_factors(f: UniPoly) -> tuple[list[Fraction], list[UniPoly]]:
    """Rational roots and the monic irreducible factors of degree >= 2."""
    if f.is_zero or f.degree <= 0:
        return [], []
    _, factors = factor_uni(f)
    roots: list[Fraction] = []
    hard: list[UniPoly] = []
    for p, _mult in factors:
        if p.degree == 1:
            roots.append(-p.coeff(0))
        else:
            hard.append(p)
    return roots, hard


def _boundary_candidates(d: SurfDivisor) -> tuple[list, list]:
    """Points and clusters where d meets the lines at infinity."""
    if d.var == "x":
        return _mirrored(_boundary_candidates(d.mirror()))
    points = [(INF, d.phi().evaluate_at_infinity())]
    roots, hard = _roots_and_factors(d.den)
    points += [(r, INF) for r in roots]
    return points, [Cluster("x", q, None) for q in hard]


def _pair_candidates(d1: SurfDivisor, d2: SurfDivisor, *,
                     table: dict) -> tuple[list, list]:
    """Finite-chart intersection candidates of a pair. Meetings with an
    infinite coordinate are boundary points of both parties and are already
    in the candidate set."""
    if d1.sort_key() > d2.sort_key():
        d1, d2 = d2, d1
    if d1.var == d2.var == "x":
        return _mirrored(_pair_candidates(d1.mirror(), d2.mirror(), table=table))
    if d1.var == "x":
        d1, d2 = d2, d1
    # d1 is y = phi(x); x solves d2's own equation, its grid from table,
    # along d1, up to a positive constant that moves no root or factor
    phi = d1.phi()
    cols = _rule_entry(table, _equation, (d2,), _AFFINE[False, False])[1]
    eqn = grid_at_y(cols, d1.num, d1.den)
    roots, hard = _roots_and_factors(eqn)
    # a root or factor at a pole of phi meets with y = inf: a boundary
    # candidate of d1
    points = [(x0, phi.evaluate(x0)) for x0 in roots
              if d1.den.evaluate(x0) != 0]
    clusters = [Cluster("x", q, phi) for q in hard
                if not (d1.den % q).is_zero]
    return points, clusters


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


def snc_check(w: Wedge) -> SncReport:
    """Check the support of a surface wedge for strict normal crossings:
    pairwise transversal meetings and no triple points.
    """
    divisors = finite_support_divisors(w)
    table: dict = {}
    found = [_boundary_candidates(d) for d in divisors]
    found += [_pair_candidates(d1, d2, table=table)
              for i, d1 in enumerate(divisors) for d2 in divisors[i + 1:]]
    points: set = set()
    clusters: set = set()
    for pts, cls in found:
        points.update(pts)
        clusters.update(cls)

    candidates = [(pt, point_str, _vanishes_at_point)
                  for pt in sorted(points, key=point_key)]
    candidates += [(cl, str, _vanishes_on_cluster)
                   for cl in sorted(clusters, key=Cluster.sort_key)]
    problems: list[SncProblem] = []
    for cand, describe, vanishes in candidates:
        members = [d for d in divisors
                   if vanishes(cand, _equation, d, table=table)]
        if len(members) >= 3:
            kind = "triple"
        elif len(members) == 2 and vanishes(cand, _jacobian_det, *members,
                                            table=table):
            kind = "tangency"
        else:
            continue
        problems.append(SncProblem(kind, describe(cand),
                                   tuple(str(d) for d in members)))

    return SncReport(ok=not problems, divisors=divisors, problems=problems,
                     candidates_checked=len(points) + len(clusters))
