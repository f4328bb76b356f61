"""Exterior powers of the class space, with decidable equality.

A Wedge of degree n is a Q-linear combination of monomials a_1 ^ ... ^ a_n
over strictly increasing tuples of atoms. Degree 0 is the scalar line: its
single monomial is the empty tuple. Products of monomials with a repeated
atom vanish; reordering picks up the permutation sign. Since the atom order
is canonical, two wedges are equal iff their term maps are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .atoms import Atom, MultVec, PrimeAtom, atom_str
from .errors import DegreeMismatch, MixedFields
from .polynomials import ZERO, num_str

Q = Fraction


@dataclass(frozen=True)
class Wedge:
    field: str
    degree: int
    terms: tuple[tuple[tuple[Atom, ...], Fraction], ...]

    @staticmethod
    def make(field: str, degree: int, mapping: dict[tuple[Atom, ...], Fraction]) -> "Wedge":
        items = [(k, c if type(c) is Fraction else Q(c))
                 for k, c in mapping.items() if c]
        items.sort(key=lambda kc: tuple(a.sort_key() for a in kc[0]))
        return Wedge(field, degree, tuple(items))

    @staticmethod
    def zero(field: str, degree: int) -> "Wedge":
        return Wedge(field, degree, ())

    @staticmethod
    def scalar(field: str, c) -> "Wedge":
        return Wedge.make(field, 0, {(): Q(c)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[tuple[Atom, ...], Fraction]:
        return dict(self.terms)

    def scalar_value(self) -> Fraction:
        if self.degree != 0:
            raise DegreeMismatch("scalar_value on a positive-degree wedge")
        return self.terms[0][1] if self.terms else Q(0)


def _sorted_with_sign(atoms: tuple[Atom, ...]) -> tuple[tuple[Atom, ...], int] | None:
    """Sort a monomial; None if an atom repeats (the monomial vanishes)."""
    keyed = [(a.sort_key(), a) for a in atoms]
    n = len(keyed)
    sign = 1
    # insertion sort, counting swaps; n is tiny
    arr = list(keyed)
    for i in range(1, n):
        j = i
        while j > 0 and arr[j - 1][0] > arr[j][0]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, n):
        if arr[i - 1][0] == arr[i][0]:
            return None
    return tuple(a for _, a in arr), sign


def wedge_of(vectors: list[MultVec]) -> Wedge:
    """Exterior product of class vectors, fully expanded and canonicalized."""
    if not vectors:
        raise ValueError("wedge_of needs at least one vector")
    field = vectors[0].field
    for v in vectors:
        if v.field != field:
            raise MixedFields(f"{v.field} vs {field}")
    n = len(vectors)
    out: dict[tuple[Atom, ...], Fraction] = {}
    stack: list[tuple[int, tuple[Atom, ...], Fraction]] = [(0, (), Q(1))]
    while stack:
        i, chosen, coeff = stack.pop()
        if i == n:
            res = _sorted_with_sign(chosen)
            if res is not None:
                key, sign = res
                out[key] = out.get(key, ZERO) + sign * coeff
            continue
        for a, c in vectors[i].coeffs:
            stack.append((i + 1, chosen + (a,), coeff * c))
    return Wedge.make(field, n, out)


def wedge_monomial(field: str, atoms: list[Atom], coeff=1) -> Wedge:
    res = _sorted_with_sign(tuple(atoms))
    if res is None:
        return Wedge.zero(field, len(atoms))
    key, sign = res
    return Wedge.make(field, len(atoms), {key: sign * Q(coeff)})


def wedge_add(a: Wedge, b: Wedge) -> Wedge:
    if a.field != b.field:
        raise MixedFields(f"{a.field} vs {b.field}")
    if a.degree != b.degree:
        raise DegreeMismatch(f"degree {a.degree} vs {b.degree}")
    d = a.as_dict()
    for k, c in b.terms:
        d[k] = d.get(k, ZERO) + c
    return Wedge.make(a.field, a.degree, d)


def wedge_scale(a: Wedge, c) -> Wedge:
    if type(c) is not Fraction:
        c = Q(c)
    if not c:
        return Wedge.zero(a.field, a.degree)
    return Wedge(a.field, a.degree, tuple((k, c * v) for k, v in a.terms))


def wedge_sub(a: Wedge, b: Wedge) -> Wedge:
    return wedge_add(a, wedge_scale(b, -1))


def wedge_equal(a: Wedge, b: Wedge) -> bool:
    if a.field != b.field:
        raise MixedFields(f"{a.field} vs {b.field}")
    if a.degree != b.degree:
        raise DegreeMismatch(f"degree {a.degree} vs {b.degree}")
    return a.terms == b.terms


def wedge_concat(a: Wedge, b: Wedge) -> Wedge:
    """a ^ b on wedges themselves."""
    if a.field != b.field:
        raise MixedFields(f"{a.field} vs {b.field}")
    out: dict[tuple[Atom, ...], Fraction] = {}
    for ka, ca in a.terms:
        for kb, cb in b.terms:
            res = _sorted_with_sign(ka + kb)
            if res is None:
                continue
            key, sign = res
            out[key] = out.get(key, ZERO) + sign * ca * cb
    return Wedge.make(a.field, a.degree + b.degree, out)


def retag(w: Wedge, field: str) -> Wedge:
    """Relabel the coefficient field (e.g. a blow-up residue read as a curve).

    Only meaningful between fields whose atoms are compatible; the atoms are
    kept as they are.
    """
    return Wedge(field, w.degree, w.terms)


def nonconstant_count(key: tuple[Atom, ...]) -> int:
    return sum(1 for a in key if not isinstance(a, PrimeAtom))


def wedge_str(w: Wedge, wrap: str = "w") -> str:
    """Canonical text form, round-trippable through the DSL parser."""
    if w.degree == 0:
        return num_str(w.scalar_value())
    if w.is_zero:
        return "0"
    parts: list[str] = []
    for key, c in w.terms:
        body = f"{wrap}[" + ", ".join(atom_str(a, w.field) for a in key) + "]"
        mag = abs(c)
        piece = body if mag == 1 else f"{num_str(mag)}*{body}"
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if c > 0 else f" - {piece}")
    return "".join(parts)
