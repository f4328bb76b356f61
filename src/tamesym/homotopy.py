"""The constructive lifted-reciprocity map on Q(t).

Any wedge over Q(t) whose nonconstant atoms are all linear splits as a
delta-image plus a part with at most two nonconstant slots per monomial.
The decomposition is by an explicit identity: a monomial containing
(t-a) ^ (t-b) ^ (t-c) with a > b > c is the pure term of
delta({f}_2 (x) (t-a) ^ rest) for f = lambda (t-b)/(t-a) with
lambda = (a-c)/(b-c), because then 1 - f = mu (t-c)/(t-a); every cross
term has strictly fewer nonconstant atoms, so the rewriting terminates.
Each step's image is one expansion, subtracted from a dict; the remainder
and the preimage are canonicalised once, at the end. The reciprocity map
is the place-sum of residues of the accumulated preimage, and the two
triangle identities it satisfies are checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .atoms import AtomRegistry, MultVec, UniAtom, constant_class
from .errors import MixedFields, NonLinearAtom
from .expressions import RatFunc
from .gamma import GammaSub, delta, gamma_term, tot_gamma
from .places import weil_sum
from .polynomials import ZERO
from .wedges import (Wedge, class_factors, expand_products, nonconstant_count,
                     wedge_add, wedge_equal)

Q = Fraction


@dataclass(frozen=True)
class DecompResult:
    preimage: GammaSub  # b with delta(b) = input - remainder
    remainder: Wedge    # certified: <= 2 nonconstant atoms per monomial


def _check_split(w: Wedge) -> None:
    for key, _ in w.terms:
        for a in key:
            if isinstance(a, UniAtom) and a.poly.degree > 1:
                raise NonLinearAtom(
                    f"atom {a.poly} is nonconstant but not linear")


def decompose(w: Wedge, reg: AtomRegistry) -> DecompResult:
    """Split a wedge over Q(t) into a delta-image and a two-slot part.

    Each step rewrites a heaviest monomial left. Which one comes first does
    not change the result: a step is linear in the coefficient it removes
    and its cross terms have fewer nonconstant atoms, so every monomial's
    whole coefficient is rewritten, whatever the order, and decompose is
    Q-linear.

    Nothing is factored: f = lambda (t-b)/(t-a) is reduced as built (distinct
    monic linear atoms), and a step's image class(f) ^ class(1 - f) ^ tail is
    one expansion of t-a, t-b, t-c and the constants lambda and
    mu = 1 - lambda. The remainder and the preimage are dicts while the
    steps run, and are canonicalised once, on return.
    """
    _check_split(w)
    preimage: dict = {}
    current = w.as_dict()
    while current:
        key = max(current, key=nonconstant_count)
        if nonconstant_count(key) < 3:
            break
        aa, bb, cc = [x for x in key if isinstance(x, UniAtom)][:3]
        a, b, c3 = (-x.poly.coeff(0) for x in (aa, bb, cc))
        lam = (a - c3) / (b - c3)
        tail_key = tuple(x for x in key if x not in (bb, cc))
        tail = Wedge("Qt", len(tail_key), ((tail_key, Q(1)),))
        candidate = gamma_term(1, RatFunc(bb.poly.scale(lam), aa.poly), tail)
        slots = []
        for const, atom in ((lam, bb), (1 - lam, cc)):  # f, then 1 - f
            cls = constant_class(const, reg, "Qt")
            cls[atom], cls[aa] = Q(1), Q(-1)
            slots.append(MultVec.make("Qt", cls))
        image = expand_products("Qt", w.degree, [
            (1, class_factors(slots) + [[(tail_key, 1)]])]).as_dict()
        s = image.get(key)
        if s is None or s == 0:
            raise AssertionError(
                "rewriting identity lost its pure term; the atom order "
                "changed underneath the decomposition")
        if w.field != "Qt":  # the image lives over Q(t)
            raise MixedFields(f"{w.field} vs Qt")
        r = current[key] / s
        for k, c in image.items():
            current[k] = current.get(k, ZERO) - r * c
            if not current[k]:
                del current[k]
        for k, c in candidate.terms:
            preimage[k] = preimage.get(k, ZERO) + r * c
    return DecompResult(preimage=GammaSub.make("Qt", w.degree - 2, preimage),
                        remainder=Wedge.make(w.field, w.degree, current))


def decomp_certificate(w: Wedge, dec: DecompResult,
                       reg: AtomRegistry) -> tuple[bool, bool]:
    """(exact, small): delta(preimage) + remainder is w, and no remainder
    monomial has more than two nonconstant atoms."""
    exact = wedge_equal(wedge_add(delta(dec.preimage, reg), dec.remainder), w)
    small = all(nonconstant_count(key) <= 2 for key, _ in dec.remainder.terms)
    return exact, small


def h_map(w: Wedge, reg: AtomRegistry) -> GammaSub:
    """Sum of residues of the decomposition preimage; the remainder
    contributes nothing by construction."""
    dec = decompose(w, reg)
    return tot_gamma(dec.preimage, reg)


@dataclass
class HomotopyTopReport:
    ok: bool
    delta_h: Wedge
    weil: Wedge


def homotopy_check_top(w: Wedge, reg: AtomRegistry) -> HomotopyTopReport:
    """Lower triangle: delta(h(w)) + (sum of tame symbols of w) = 0."""
    dh = delta(h_map(w, reg), reg)
    ws = weil_sum(w, reg)
    return HomotopyTopReport(ok=wedge_add(dh, ws).is_zero,
                             delta_h=dh, weil=ws)


@dataclass
class HomotopySubReport:
    ok: bool
    syntactic: bool


def homotopy_check_sub(b: GammaSub, reg: AtomRegistry) -> HomotopySubReport:
    """Upper triangle: h(delta(b)) agrees with the residue sum of b.

    Agreement is first tried syntactically on normalized symbols; if that
    fails the two sides are compared through their delta-images, which is
    the decidable equality.
    """
    lhs = h_map(delta(b, reg), reg)
    rhs = tot_gamma(b, reg)
    if lhs == rhs:
        return HomotopySubReport(ok=True, syntactic=True)
    same = delta(lhs, reg) == delta(rhs, reg)
    return HomotopySubReport(ok=same, syntactic=False)
