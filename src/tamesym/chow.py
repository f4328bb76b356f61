"""Dimension-one cubical cycles over Q, their face boundary, and the
comparison map into the graded residue complex.

A curve cycle is a tuple of coordinate functions of one parameter; a point
cycle is a tuple of nonzero rational values. Admissibility is the codim-2
properness condition: no parameter value, including infinity, puts two
distinct coordinates simultaneously into {0, infinity}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .atoms import AtomRegistry, factor_into_atoms, mult_vec
from .errors import (CoordinateIdenticallyFace, NonSplitResidue,
                     NotAdmissible)
from .expressions import INF, RatFunc, ratfunc_str
from .lambda_complex import LambdaElem, differential
from .polynomials import ZERO, gcd_uni
from .wedges import Wedge, wedge_of, wedge_scale

Q = Fraction


@dataclass(frozen=True)
class CubeCurve:
    """Parametrized curve (f_1(t), ..., f_n(t)) with a rational
    coefficient; the parametrization is taken to be birational onto its
    image, so the coefficient carries any intended multiplicity."""

    coords: tuple[RatFunc, ...]
    coeff: Fraction

    @staticmethod
    def make(coords, coeff=1) -> "CubeCurve":
        fs = []
        for i, f in enumerate(coords):
            if not isinstance(f, RatFunc):
                f = RatFunc.const(Q(f))
            if f.is_zero:
                raise CoordinateIdenticallyFace(
                    f"coordinate {i + 1} is identically 0")
            if f.constant_value() == 1:
                raise CoordinateIdenticallyFace(
                    f"coordinate {i + 1} is identically 1")
            fs.append(f)
        return CubeCurve(tuple(fs), Q(coeff))

    @property
    def n(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        inner = ", ".join(ratfunc_str(f, "t") for f in self.coords)
        head = "" if self.coeff == 1 else f"{self.coeff}*"
        return f"{head}cyc[{inner}]"


@dataclass(frozen=True)
class PointCycle:
    """Boundary target: coordinate values with none in {0, infinity};
    values equal to 1 are legal but flagged, since the ambient cube
    excludes 1 and such points are degenerate-adjacent."""

    values: tuple[Fraction, ...]
    coeff: Fraction
    touches_one: bool


def admissible_check(z: CubeCurve) -> tuple[bool, list[str]]:
    """Proper intersection with all faces; returns (ok, report lines)."""
    problems: list[str] = []
    fs = z.coords
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            pairs = [
                (fs[i].num, fs[j].num, "zero", "zero"),
                (fs[i].num, fs[j].den, "zero", "pole"),
                (fs[i].den, fs[j].num, "pole", "zero"),
                (fs[i].den, fs[j].den, "pole", "pole"),
            ]
            for a, b, ka, kb in pairs:
                if a.degree < 1 or b.degree < 1:
                    continue
                g = gcd_uni(a, b)
                if g.degree >= 1:
                    problems.append(
                        f"coordinates {i + 1} ({ka}) and {j + 1} ({kb}) "
                        f"meet a face together where {g} = 0")
            if fs[i].order_at_infinity() != 0 \
                    and fs[j].order_at_infinity() != 0:
                problems.append(
                    f"coordinates {i + 1} and {j + 1} both lie in "
                    "{0, inf} at t=inf")
    return not problems, problems


def _face_events(f: RatFunc, reg: AtomRegistry) -> list[tuple]:
    """(parameter value or INF, signed order) at every zero and pole."""
    events: list[tuple] = []
    _, exps = factor_into_atoms(f.num, f.den, reg)
    for atom, e in sorted(exps.items(), key=lambda ae: ae[0].sort_key()):
        if atom.poly.degree != 1:
            raise NonSplitResidue(
                f"face point of {f} at {atom.poly} = 0 is not rational")
        events.append((-atom.poly.coeff(0), e))
    oi = f.order_at_infinity()
    if oi != 0:
        events.append((INF, oi))
    return events


def cube_boundary(z: CubeCurve, reg: AtomRegistry) -> list[PointCycle]:
    """Alternating sum of proper face intersections.

    For coordinate i (1-based), a zero of order e at t0 contributes
    (-1)^(i+1) * e times the point with the other coordinates evaluated at
    t0; a pole contributes the opposite sign. Points are merged and sorted.
    """
    ok, problems = admissible_check(z)
    if not ok:
        raise NotAdmissible("; ".join(problems))
    acc: dict[tuple[Fraction, ...], Fraction] = {}
    for i, f in enumerate(z.coords):
        sign = Q(1) if i % 2 == 0 else Q(-1)
        for t0, order in _face_events(f, reg):
            vals = []
            for j, g in enumerate(z.coords):
                if j == i:
                    continue
                v = g.evaluate_at_infinity() if t0 is INF else g.evaluate(t0)
                if v is INF or v == 0:
                    raise NotAdmissible(
                        f"coordinate {j + 1} lies in {{0, inf}} at the "
                        f"face point t={'inf' if t0 is INF else t0} of "
                        f"coordinate {i + 1}")
                vals.append(v)
            key = tuple(vals)
            face_sign = Q(1) if order > 0 else Q(-1)
            acc[key] = acc.get(key, ZERO) \
                + z.coeff * sign * face_sign * abs(order)
    out = []
    for key in sorted(acc):
        if acc[key] != 0:
            out.append(PointCycle(key, acc[key], any(v == 1 for v in key)))
    return out


def w_map_curve(z: CubeCurve, reg: AtomRegistry) -> LambdaElem:
    """The curve term carrying the wedge of all coordinates."""
    w = wedge_of([mult_vec(f, reg) for f in z.coords])
    return LambdaElem.make(z.n - 1, curve=wedge_scale(w, z.coeff))


def w_map_point(p: PointCycle, reg: AtomRegistry) -> LambdaElem:
    w = wedge_of([mult_vec(v, reg, "Q") for v in p.values])
    return LambdaElem.make(len(p.values), point=wedge_scale(w, p.coeff))


def w_map(zp, reg: AtomRegistry) -> LambdaElem:
    if isinstance(zp, CubeCurve):
        return w_map_curve(zp, reg)
    return w_map_point(zp, reg)


@dataclass
class WCheckReport:
    ok: bool
    lhs: LambdaElem  # differential of w_map(Z)
    rhs: LambdaElem  # w_map of the boundary


def w_commutes_check(z: CubeCurve, reg: AtomRegistry) -> WCheckReport:
    """The comparison square: residue differential after mapping equals
    mapping the cubical boundary."""
    lhs = differential(w_map_curve(z, reg), reg)
    rhs = LambdaElem.zero(z.n - 1)
    for p in cube_boundary(z, reg):
        rhs = rhs.add(w_map_point(p, reg))
    return WCheckReport(ok=(lhs == rhs), lhs=lhs, rhs=rhs)
