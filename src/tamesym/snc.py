"""Strict normal crossing checker for configurations of rational divisors
on the product of two projective lines.

Every divisor in the supported vocabulary (graphs of rational functions
in either direction, a vertical or horizontal line being the graph of a
constant) is smooth, so the two things that can go wrong are a
non-transversal pairwise meeting and three or more divisors through one
point. The checker enumerates a finite candidate set that provably
contains every intersection point: pairwise finite solutions plus all
boundary points (where a divisor meets the infinity lines), then tests
membership of every divisor at every candidate through the four affine
charts. Once one divisor of a pair, y = phi1(x), solves for y, x solves
num1*den2 - num2*den1 = 0 when the other is a graph y = phi2(x) too, and
the fixed-point equation x = psi(phi1(x)) when the other is x = psi(y).

Points with algebraic coordinates are handled as clusters: an irreducible
polynomial q together with the other coordinate expressed as a rational
function of the first (or the infinite marker). Membership and
transversality are decided modulo q, which settles all conjugate points at
once.

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
from .places import (Graph, SurfDivisor, defining_bipoly,
                     finite_support_divisors, point_key, point_str)
from .polynomials import BiPoly, UniPoly, factor_uni, poly_str
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
# charts and membership
# ---------------------------------------------------------------------------


def _chart_poly(d: SurfDivisor, x_inf: bool, y_inf: bool) -> BiPoly:
    g = defining_bipoly(d)
    if x_inf:
        g = g.invert_x()
    if y_inf:
        g = g.invert_y()
    return g


def _local_coords(pt) -> tuple[bool, bool, Fraction, Fraction]:
    x_inf = pt[0] is INF
    y_inf = pt[1] is INF
    a = Q(0) if x_inf else pt[0]
    b = Q(0) if y_inf else pt[1]
    return x_inf, y_inf, a, b


def _through_point(d: SurfDivisor, pt) -> bool:
    x_inf, y_inf, a, b = _local_coords(pt)
    return _chart_poly(d, x_inf, y_inf).evaluate(a, b) == 0


def _fixed_point_eqn(d: Graph, e: RatFunc) -> tuple[UniPoly, UniPoly]:
    """(eqn, dc) for x = psi(e(x)), d the graph x = psi(y): psi(e(x)) = nc/dc
    with e's denominator cleared, and eqn = nc - dc*x."""
    a = BiPoly.from_uni(d.num, "y").eval_y_ratfunc(e.num, e.den)
    b = BiPoly.from_uni(d.den, "y").eval_y_ratfunc(e.num, e.den)
    nc = a * e.den ** max(d.den.degree, 0)
    dc = b * e.den ** max(d.num.degree, 0)
    return nc - dc * UniPoly.var(), dc


def _through_cluster(d: SurfDivisor, cl: Cluster) -> bool:
    if cl.axis == "y":
        return _through_cluster(d.mirror(), cl.mirror())
    q = cl.q
    e = cl.expr
    if d.var == "y":
        if e is None:
            return (d.den % q).is_zero
        if (d.den % q).is_zero:
            return False
        lhs = d.num * e.den - e.num * d.den
        return (lhs % q).is_zero
    # x = psi(y): need psi(e(x)) = x identically modulo q
    if e is None:
        return False  # psi at infinity is a rational point or infinite
    eqn, dc = _fixed_point_eqn(d, e)
    if (dc % q).is_zero:
        return False
    return (eqn % q).is_zero


# ---------------------------------------------------------------------------
# transversality
# ---------------------------------------------------------------------------


def _jacobian_det(g1: BiPoly, g2: BiPoly) -> BiPoly:
    return g1.partial_x() * g2.partial_y() - g1.partial_y() * g2.partial_x()


def _transversal_at_point(d1: SurfDivisor, d2: SurfDivisor, pt) -> bool:
    x_inf, y_inf, a, b = _local_coords(pt)
    det = _jacobian_det(_chart_poly(d1, x_inf, y_inf),
                        _chart_poly(d2, x_inf, y_inf))
    return det.evaluate(a, b) != 0


def _transversal_at_cluster(d1, d2, cl: Cluster) -> bool:
    if cl.axis == "y":
        return _transversal_at_cluster(d1.mirror(), d2.mirror(), cl.mirror())
    y_inf = cl.expr is None
    det = _jacobian_det(_chart_poly(d1, False, y_inf),
                        _chart_poly(d2, False, y_inf))
    if y_inf:
        reduced = det.subst_y(0) % cl.q
    else:
        reduced = det.eval_y_ratfunc(cl.expr.num, cl.expr.den) % cl.q
    return not reduced.is_zero


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


def _pair_candidates(d1: SurfDivisor, d2: SurfDivisor) -> tuple[list, list]:
    """Finite-chart intersection candidates of a pair. Meetings with an
    infinite coordinate are boundary points of both parties and are already
    in the candidate set."""
    if d1.sort_key() > d2.sort_key():
        d1, d2 = d2, d1
    if d1.var == d2.var == "x":
        return _mirrored(_pair_candidates(d1.mirror(), d2.mirror()))
    if d1.var == "x":
        d1, d2 = d2, d1
    # d1 is y = phi(x); x solves phi's equation with d2
    phi = d1.phi()
    if d2.var == "y":
        eqn = d1.num * d2.den - d2.num * d1.den
    else:
        eqn = _fixed_point_eqn(d2, phi)[0]
    roots, hard = _roots_and_factors(eqn)
    # a root at a pole of phi meets at (x0, inf): boundary of both
    points = [(x0, phi.evaluate(x0)) for x0 in roots
              if d1.den.evaluate(x0) != 0]
    clusters = []
    for q in hard:
        if not (d1.den % q).is_zero:
            clusters.append(Cluster("x", q, phi))
        elif d2.var == "y":  # a shared pole
            clusters.append(Cluster("x", q, None))
        # else q divides the equation only through the d1.den clearing it
    return points, clusters


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


def snc_check(w: Wedge) -> SncReport:
    """Check the support of a surface wedge for strict normal crossings:
    pairwise transversal meetings and no triple points.
    """
    divisors = finite_support_divisors(w)
    found = [_boundary_candidates(d) for d in divisors]
    found += [_pair_candidates(d1, d2) for i, d1 in enumerate(divisors)
              for d2 in divisors[i + 1:]]
    points: set = set()
    clusters: set = set()
    for pts, cls in found:
        points.update(pts)
        clusters.update(cls)

    candidates = [(pt, point_str, _through_point, _transversal_at_point)
                  for pt in sorted(points, key=point_key)]
    candidates += [(cl, str, _through_cluster, _transversal_at_cluster)
                   for cl in sorted(clusters, key=Cluster.sort_key)]
    problems: list[SncProblem] = []
    for cand, describe, through, transversal in candidates:
        members = [d for d in divisors if through(d, cand)]
        if len(members) >= 3:
            kind = "triple"
        elif len(members) == 2 and not transversal(*members, cand):
            kind = "tangency"
        else:
            continue
        problems.append(SncProblem(kind, describe(cand),
                                   tuple(str(d) for d in members)))

    return SncReport(ok=not problems, divisors=divisors, problems=problems,
                     candidates_checked=len(points) + len(clusters))
