"""Graded elements over point, line, and surface with the residue
differential.

An element of weight m has three homogeneous parts, normalized by grouping:
a wedge over Q in degree m (point terms), a wedge over Q(t) in degree m+1
(curve terms), and a wedge over Q(x,y) in degree m+2 (surface terms). The
differential sends surface terms to the sum of their tame symbols over all
support divisors (including the two infinity lines) and curve terms to the
sum over places; point terms die. Surface inputs must present a strict
normal crossing support; no attempt is made to repair one that does not.
Every residue is `tame_symbol` at a place, which gives its own orders,
unit classes and residue field; the blow-up probe is the place
`ExceptionalCurve(c1, c2)`, whose residues over Q(v) become curve wedges
by `blowup_as_curve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .atoms import AtomRegistry, mult_vec, one_minus
from .errors import DegreeMismatch, MixedFields, NotStrictlyRegular
from .expressions import RatFunc
from .places import (chain_point, point_key, point_str, support, support_sum,
                     tame_symbol, weil_sum)
from .snc import snc_check
from .wedges import (Wedge, expand_products, retag, wedge_add, wedge_concat,
                     wedge_of, wedge_scale, wedge_str)

Q = Fraction


@dataclass(frozen=True)
class LambdaElem:
    """Weight-m element with point, curve, and surface parts."""

    m: int
    point: Wedge
    curve: Wedge
    surface: Wedge

    @staticmethod
    def make(m: int, point: Wedge | None = None, curve: Wedge | None = None,
             surface: Wedge | None = None) -> "LambdaElem":
        point = point if point is not None else Wedge.zero("Q", m)
        curve = curve if curve is not None else Wedge.zero("Qt", m + 1)
        surface = surface if surface is not None else Wedge.zero("Qxy", m + 2)
        if point.field != "Q" or curve.field != "Qt" or surface.field != "Qxy":
            raise MixedFields(
                f"parts must live over Q / Q(t) / Q(x,y), got "
                f"{point.field}/{curve.field}/{surface.field}")
        if (point.degree, curve.degree, surface.degree) != (m, m + 1, m + 2):
            raise DegreeMismatch(
                f"weight {m} needs degrees {(m, m + 1, m + 2)}, got "
                f"{(point.degree, curve.degree, surface.degree)}")
        return LambdaElem(m, point, curve, surface)

    @staticmethod
    def zero(m: int) -> "LambdaElem":
        return LambdaElem.make(m)

    @property
    def is_zero(self) -> bool:
        return self.point.is_zero and self.curve.is_zero \
            and self.surface.is_zero

    def add(self, other: "LambdaElem") -> "LambdaElem":
        if self.m != other.m:
            raise DegreeMismatch(f"weight {self.m} vs {other.m}")
        return LambdaElem(self.m, wedge_add(self.point, other.point),
                          wedge_add(self.curve, other.curve),
                          wedge_add(self.surface, other.surface))

    def scale(self, c) -> "LambdaElem":
        return LambdaElem(self.m, wedge_scale(self.point, c),
                          wedge_scale(self.curve, c),
                          wedge_scale(self.surface, c))


def lambda_str(e: LambdaElem) -> str:
    parts = []
    if not e.surface.is_zero:
        parts.append(f"[S: {wedge_str(e.surface)}]")
    if not e.curve.is_zero:
        parts.append(f"[P1: {wedge_str(e.curve)}]")
    if not e.point.is_zero:
        parts.append(f"[pt: {wedge_str(e.point)}]")
    body = " + ".join(parts) if parts else "0"
    return f"m={e.m}; {body}"


# ---------------------------------------------------------------------------
# the differential and its square
# ---------------------------------------------------------------------------


def _surface_to_curve(w: Wedge, reg: AtomRegistry) -> Wedge:
    report = snc_check(w)
    if not report.ok:
        lines = "; ".join(f"{p.kind} at {p.where}" for p in report.problems)
        raise NotStrictlyRegular(f"surface support is not SNC: {lines}")
    return support_sum(w, "Qt", reg)


def differential(e: LambdaElem, reg: AtomRegistry) -> LambdaElem:
    """Divisor-and-place sum of tame symbols, graded piece by piece."""
    new_curve = Wedge.zero("Qt", e.m + 1)
    if not e.surface.is_zero:
        new_curve = _surface_to_curve(e.surface, reg)
    new_point = weil_sum(e.curve, reg) if not e.curve.is_zero \
        else Wedge.zero("Q", e.m)
    return LambdaElem.make(e.m, point=new_point, curve=new_curve)


def d_squared_check(e: LambdaElem, reg: AtomRegistry) -> LambdaElem:
    """differential applied twice; reciprocity says this is 0."""
    return differential(differential(e, reg), reg)


# ---------------------------------------------------------------------------
# chain-level cancellation: the per-point refinement of d^2 = 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainGroup:
    point: str
    members: int
    nonzero: int
    sum_is_zero: bool

    @property
    def ok(self) -> bool:
        return self.sum_is_zero and self.nonzero in (0, 2)


@dataclass
class ParshinReport:
    ok: bool
    groups: list[ChainGroup]


def parshin_check(w: Wedge, reg: AtomRegistry) -> ParshinReport:
    """Group the double residues of a strictly regular surface wedge by the
    surface point their chain passes through; each group must cancel on its
    own, with either zero or exactly two nonzero contributions. A chain
    through points that are not rational is refused by `chain_point`
    (NonSplitResidue)."""
    report = snc_check(w)
    if not report.ok:
        raise NotStrictlyRegular("chain grouping needs an SNC support")
    buckets: dict = {}
    for d in support(w):
        ts_d = tame_symbol(w, d, reg)
        if ts_d.is_zero:
            continue
        for v in support(ts_d):
            key = chain_point(d, v)
            contribution = tame_symbol(ts_d, v, reg)
            buckets.setdefault(key, []).append(contribution)
    groups = []
    for key in sorted(buckets, key=point_key):
        contributions = buckets[key]
        total = expand_products("Q", w.degree - 2,
                                [(1, [c.terms]) for c in contributions])
        nonzero = sum(1 for c in contributions if not c.is_zero)
        groups.append(ChainGroup(point_str(key), len(contributions),
                                 nonzero, total.is_zero))
    return ParshinReport(ok=all(g.ok for g in groups), groups=groups)


# ---------------------------------------------------------------------------
# vanishing shadow and the blow-up probe
# ---------------------------------------------------------------------------


def bs_vanishing_check(f: RatFunc, g: RatFunc, cbar: Wedge,
                       reg: AtomRegistry) -> bool:
    """d[P1, f ^ g ^ cbar] = 0: any curve wedge with at most two
    nonconstant slots has vanishing differential, because the constant
    cofactors ride along every residue and reciprocity kills the rest."""
    if cbar.field != "Q":
        raise MixedFields("the tail must be a constant wedge over Q")
    head = wedge_of([mult_vec(f, reg), mult_vec(g, reg)])
    w = wedge_concat(head, retag(cbar, "Qt"))
    return weil_sum(w, reg).is_zero


def blowup_as_curve(w: Wedge) -> Wedge:
    """Reinterpret a residue over Q(v) as a curve wedge over Q(t) so the
    curve differential can consume it."""
    return retag(w, "Qt")


# ---------------------------------------------------------------------------
# named curve elements
# ---------------------------------------------------------------------------


def totaro_wedge(a, consts, reg: AtomRegistry) -> Wedge:
    """t ^ (1-t) ^ (1-a/t) ^ cbar over Q(t) for a rational a outside
    {0, 1}; consts is the tuple of nonzero constant slots."""
    a = Q(a)
    if a in (0, 1):
        raise ValueError("parameter must avoid 0 and 1")
    t = RatFunc.var()
    slots = [mult_vec(t, reg), one_minus(t, reg),
             one_minus(RatFunc.const(a) / t, reg)]
    for c in consts:
        slots.append(mult_vec(Q(c), reg, "Qt"))
    return wedge_of(slots)


def totaro_element(a, consts, reg: AtomRegistry) -> LambdaElem:
    m = 2 + len(tuple(consts))
    return LambdaElem.make(m, curve=totaro_wedge(a, consts, reg))
