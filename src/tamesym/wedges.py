"""Exterior powers of the class space, with decidable equality.

A Wedge of degree n is a Q-linear combination of monomials a_1 ^ ... ^ a_n
over strictly increasing tuples of atoms. Degree 0 is the scalar line: its
single monomial is the empty tuple. Products of monomials with a repeated
atom vanish; reordering picks up the permutation sign. Since the atom order
is canonical, two wedges are equal iff their term maps are identical.
Wedge takes its arithmetic from `atoms.Combination`, with its degree as
the grade, and adds its monomial order and the scalar line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .atoms import Atom, Combination, MultVec, PrimeAtom, atom_str
from .errors import DegreeMismatch, MixedFields
from .polynomials import sum_str

Q = Fraction


@dataclass(frozen=True)
class Wedge(Combination):
    field: str
    degree: int
    terms: tuple[tuple[tuple[Atom, ...], Fraction], ...]

    _grade = "degree"
    _grade_error = DegreeMismatch

    @staticmethod
    def _order(items: list) -> None:
        rank = _ranks([a for k, _ in items for a in k])[1]
        items.sort(key=lambda kc: [rank[a] for a in kc[0]])

    @staticmethod
    def scalar(field: str, c) -> "Wedge":
        return Wedge.make(field, 0, {(): Q(c)})

    def scalar_value(self) -> Fraction:
        if self.degree != 0:
            raise DegreeMismatch("scalar_value on a positive-degree wedge")
        return self.terms[0][1] if self.terms else Q(0)


def _ranks(atoms) -> tuple[list[Atom], dict[Atom, int]]:
    """The distinct atoms in sort_key order, and each one's rank. Distinct
    atoms have distinct keys and equal atoms from two registries are equal,
    so rank tuples of one length sort as the tuples of their atoms' keys."""
    ordered = sorted(set(atoms), key=lambda a: a.sort_key())
    return ordered, {a: i for i, a in enumerate(ordered)}


def expand_products(field: str, degree: int, summands) -> Wedge:
    """Sum over (c, factors) of c times the product of the factors, each a
    sequence of (monomial, coefficient) alternatives: the one expansion.
    A whole sum (the terms of delta, a decomposition step's image, the
    residues at every place of a support) is one call, canonicalised once,
    not a fold of wedge_add.

    It runs on integers: atoms are ranked once, every coefficient is scaled
    to an integer over one common denominator, and each product is an
    insertion sort of ranks in which a swap flips the sign and a repeated
    atom drops the product. One Fraction is built per nonzero term.
    Tuples are built from lists (see the note on tuples in `polynomials`).
    """
    ordered, rank = _ranks([a for _, fs in summands for f in fs
                            for mono, _ in f for a in mono])
    scaled, den = [], 1
    for c, factors in summands:
        d = c.denominator
        ints = []
        for f in factors:
            fd = lcm(*[x.denominator for _, x in f])
            d *= fd
            ints.append([([rank[a] for a in mono],
                          x.numerator * (fd // x.denominator)) for mono, x in f])
        scaled.append((c.numerator, d, ints))
        den = lcm(den, d)
    out: dict[tuple[int, ...], int] = {}
    for num, d, ints in scaled:
        products = [([], num * (den // d))]
        for f in ints:
            grown = []
            for ranks, v in products:
                for mono, x in f:
                    arr = ranks + mono
                    term = v * x
                    for i in range(len(ranks), len(arr)):
                        r = arr[i]
                        j = i
                        while j and arr[j - 1] > r:
                            arr[j] = arr[j - 1]
                            j -= 1
                            term = -term
                        if j and arr[j - 1] == r:
                            break
                        arr[j] = r
                    else:
                        grown.append((arr, term))
            products = grown
        for ranks, v in products:
            key = tuple(ranks)
            out[key] = out.get(key, 0) + v
    terms = [(tuple([ordered[r] for r in key]), Q(out[key], den))
             for key in sorted(out) if out[key]]
    return Wedge(field, degree, tuple(terms))


def class_factors(vectors: list[MultVec]) -> list:
    """Class vectors as factors of `expand_products`; they must share a field."""
    field = vectors[0].field
    for v in vectors:
        if v.field != field:
            raise MixedFields(f"{v.field} vs {field}")
    return [[((a,), c) for a, c in v.terms] for v in vectors]


def wedge_of(vectors: list[MultVec]) -> Wedge:
    """Exterior product of class vectors, fully expanded and canonicalized."""
    if not vectors:
        raise ValueError("wedge_of needs at least one vector")
    return expand_products(vectors[0].field, len(vectors),
                           [(1, class_factors(vectors))])


def wedge_monomial(field: str, atoms: list[Atom], coeff=1) -> Wedge:
    return expand_products(field, len(atoms), [(Q(coeff), [[(atoms, 1)]])])


def wedge_add(a: Wedge, b: Wedge) -> Wedge:
    return a + b


def wedge_scale(a: Wedge, c) -> Wedge:
    return a.scale(c)


def wedge_sub(a: Wedge, b: Wedge) -> Wedge:
    return wedge_add(a, wedge_scale(b, -1))


def wedge_equal(a: Wedge, b: Wedge) -> bool:
    a.header(b)  # raises on a field or degree mismatch
    return a.terms == b.terms


def wedge_concat(a: Wedge, b: Wedge) -> Wedge:
    """a ^ b on wedges themselves."""
    if a.field != b.field:
        raise MixedFields(f"{a.field} vs {b.field}")
    return expand_products(a.field, a.degree + b.degree, [(1, [a.terms, b.terms])])


def retag(w: Wedge, field: str) -> Wedge:
    """Relabel the coefficient field (e.g. a blow-up residue read as a curve).

    Only meaningful between fields whose atoms are compatible; the atoms are
    kept as they are.
    """
    return Wedge(field, w.degree, w.terms)


def nonconstant_count(key: tuple[Atom, ...]) -> int:
    return sum(1 for a in key if not isinstance(a, PrimeAtom))


def wedge_str(w: Wedge) -> str:
    """Canonical text form, round-trippable through the DSL parser; a
    degree-zero wedge is its bare scalar."""
    return sum_str([(c, f"w[{', '.join(atom_str(a, w.field) for a in key)}]"
                     if key else "") for key, c in w.terms], " ")
