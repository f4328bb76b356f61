"""Multiplicative classes: atoms, the atom registry, and class vectors.

A MultVec is the class of a nonzero function in F*/torsion tensored with Q,
written on a basis of atoms: prime integers, monic irreducible univariate
polynomials, or primitive irreducible bivariate polynomials linear in x or
in y. Signs die in the tensor, so class(-2) = class(2) and class(-1) = 0.

The class of a function is the class of its constant plus its atoms, and
the constant is classed first, so that its refusal comes before any
factoring. Factoring returns the atoms alone: over Q(t) they are monic, so
the constant is lc(num)/lc(den); over Q(x, y) they are primitive with a
positive leading coefficient, so it is the ratio of the contents (Gauss's
lemma: content is multiplicative). A constant side is not factored.

A bivariate polynomial is factored in a fixed order: its content in Q[x],
then its content in Q[y], each divided out once, and then what is left is
tested for linearity or walked for its factors linear in x or in y. No
leftover is tested for content again.

Atoms compare by a mathematical key (never by creation order), so every run
and every registry produce the same canonical order. A registry interns the
atoms and remembers one class per (value, field) for as long as it lives.
MultVec, `wedges.Wedge` and `gamma.GammaSub` take their arithmetic from
one core, `Combination`; MultVec adds its atom order and `coeffs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import prod

from .errors import Inconclusive, MixedFields, OneMinusOfOne
from .expressions import BiFrac, RatFunc
from .integers import factor_positive_int
from .polynomials import (ZERO, BiPoly, UniPoly, bipoly_content,
                          bipoly_exact_div, bipoly_str, cached_hash,
                          factor_uni, field_state, num_str, poly_str,
                          rational_roots, set_field_state)

Q = Fraction

FIELD_VARS = {"Q": None, "Qt": "t", "Qv": "v", "Qxy": ("x", "y")}


@dataclass(frozen=True)
class PrimeAtom:
    __slots__ = ("p", "_hash")
    p: int

    __hash__ = cached_hash
    __getstate__ = field_state
    __setstate__ = set_field_state

    def sort_key(self) -> tuple:
        return (0, self.p)


@dataclass(frozen=True)
class UniAtom:
    """Monic irreducible univariate polynomial (variable named by the field)."""

    __slots__ = ("poly", "_hash")
    poly: UniPoly

    __hash__ = cached_hash
    __getstate__ = field_state
    __setstate__ = set_field_state

    def sort_key(self) -> tuple:
        return (1,) + self.poly.key()


@dataclass(frozen=True)
class BiAtom:
    """Primitive integer irreducible bivariate polynomial, positive leading
    coefficient in (x, y)-lexicographic order."""

    __slots__ = ("poly", "_hash")
    poly: BiPoly

    __hash__ = cached_hash
    __getstate__ = field_state
    __setstate__ = set_field_state

    def sort_key(self) -> tuple:
        """(2, deg_x, deg_y, terms), the terms integers, as den is 1."""
        return (2, self.poly.deg_x, self.poly.deg_y, self.poly.iterms)


Atom = PrimeAtom | UniAtom | BiAtom


def atom_str(a: Atom, field: str) -> str:
    if isinstance(a, PrimeAtom):
        return num_str(a.p)
    if isinstance(a, UniAtom):
        var = FIELD_VARS.get(field)
        return poly_str(a.poly, var if isinstance(var, str) else "t")
    return bipoly_str(a.poly)


class AtomRegistry:
    """Append-only interning table for atoms: one atom object per value,
    keyed by the value itself, whose hash is computed once. It also
    remembers the class `mult_vec` computed for each (value, field), for
    as long as the registry lives: classes depend on the value and field
    alone, so what the registry saw before changes no answer."""

    def __init__(self) -> None:
        self._primes: dict[int, PrimeAtom] = {}
        self._uni: dict[UniPoly, UniAtom] = {}
        self._bi: dict[BiPoly, BiAtom] = {}
        self._classes: dict[tuple, MultVec] = {}

    def prime(self, p: int) -> PrimeAtom:
        atom = self._primes.get(p)
        if atom is None:
            atom = PrimeAtom(p)
            self._primes[p] = atom
        return atom

    def uni(self, poly: UniPoly) -> UniAtom:
        if not poly.is_monic:
            raise ValueError("univariate atoms must be monic and nonzero")
        atom = self._uni.get(poly)
        if atom is None:
            atom = UniAtom(poly)
            self._uni[poly] = atom
        return atom

    def bi(self, poly: BiPoly) -> BiAtom:
        atom = self._bi.get(poly)
        if atom is None:
            atom = BiAtom(poly)
            self._bi[poly] = atom
        return atom


class Combination:
    """A Q-linear combination on a canonical basis, as a frozen dataclass of
    a header, its field and then the grade `_grade` names, if any, and
    `terms`, (key, nonzero Fraction) pairs in the order `_order` sorts."""

    _grade: str | None = None
    _grade_error: type = MixedFields

    @classmethod
    def make(cls, *args):
        """cls(*header, terms) from the header and then a mapping key -> c."""
        items = [(k, c if type(c) is Fraction else Q(c))
                 for k, c in args[-1].items() if c]
        cls._order(items)
        return cls(*args[:-1], tuple(items))

    @classmethod
    def zero(cls, *header):
        return cls(*header, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict:
        return dict(self.terms)

    def header(self, other=None) -> tuple:
        """(field,) or (field, grade), which other, if given, must share."""
        other = self if other is None else other
        if self.field != other.field:
            raise MixedFields(f"{self.field} vs {other.field}")
        grade = self._grade
        if grade is None:
            return (self.field,)
        mine, theirs = getattr(self, grade), getattr(other, grade)
        if mine != theirs:
            raise self._grade_error(f"{grade.replace('_', ' ')} {mine} vs {theirs}")
        return (self.field, mine)

    def __add__(self, other):
        header = self.header(other)
        d = dict(self.terms)
        for k, c in other.terms:
            d[k] = d.get(k, ZERO) + c
        return self.make(*header, d)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if type(c) is not Fraction:
            c = Q(c)
        if not c:
            return self.zero(*self.header())
        return type(self)(*self.header(), tuple([(k, c * v) for k, v in self.terms]))


@dataclass(frozen=True)
class MultVec(Combination):
    """Q-linear combination of atoms; the class of a function, or any
    Q-combination of such classes."""

    field: str
    terms: tuple[tuple[Atom, Fraction], ...]

    @staticmethod
    def _order(items: list) -> None:
        items.sort(key=lambda ac: ac[0].sort_key())

    @property
    def coeffs(self) -> tuple[tuple[Atom, Fraction], ...]:
        """The terms, read-only under their older name."""
        return self.terms


def constant_class(c: Fraction, reg: AtomRegistry, field: str) -> dict[Atom, Fraction]:
    """Prime-atom exponents of a nonzero rational constant, sign dropped.
    Numerator and denominator are coprime, so each prime comes once."""
    if c == 0:
        raise ZeroDivisionError("the multiplicative class of 0 is undefined")
    out: dict[Atom, Fraction] = {}
    for p, e in factor_positive_int(abs(c.numerator)).items():
        out[reg.prime(p)] = Q(e)
    for p, e in factor_positive_int(c.denominator).items():
        out[reg.prime(p)] = Q(-e)
    return out


# -- bivariate factoring ----------------------------------------------------


# candidates a factor walk may weigh, counted before any list is built
_WALK_BUDGET = 2**14


def _monic_divisors(factors: list[tuple[UniPoly, int]], xs: list[int]) -> list:
    """Each monic divisor d of prod(q^e), as ((q, k), ...) and d's values at xs."""
    divisors: list = [((), (Q(1),) * len(xs))]
    for q, e in factors:
        powers = [[q.evaluate(x) ** k for x in xs] for k in range(e + 1)]
        divisors = [(parts + ((q, k),), tuple([d * v for d, v in zip(ds, powers[k])]))
                    for parts, ds in divisors for k in range(e + 1)]
    return divisors


def _linear_factors_in_y(h: BiPoly, shown: BiPoly) -> tuple[list[BiPoly], BiPoly]:
    """The factors a(x)*y - b(x) of h, one per multiplicity, and the rest.

    h has no content in Q[x] or Q[y] and degree >= 2 in both variables. By
    Gauss's lemma a | lc_y(h) and b | h(x, 0) up to constants, and b(x)/a(x)
    is a root of h(x, y) at x0 < x1 < x2, the first integers from 0 where
    lc_y(h) * h(x, 0) != 0. A monic a and roots at x0 and x1 fix the ratio
    b(x1)/b(x0) of the monic b, which indexes the b's. A candidate that is a
    root at x2 too is divided out as often as the root multiplicities at x0
    and x1 allow; past `_WALK_BUDGET` candidates, Inconclusive names `shown`.
    """
    cols = h.y_coefficients()
    lead, tail = cols[-1], cols[0]
    points = (x for x in count() if lead.evaluate(x) and tail.evaluate(x))
    xs = [next(points) for _ in range(3)]
    h0, h1, h2 = (UniPoly.make([c.evaluate(x) for c in cols]) for x in xs)
    roots0, roots1 = rational_roots(h0), rational_roots(h1)
    if not roots0 or not roots1:
        return [], h
    lead_factors, tail_factors = factor_uni(lead)[1], factor_uni(tail)[1]
    candidates = (prod(e + 1 for _, e in lead_factors) * len(roots0) * len(roots1)
                  + prod(e + 1 for _, e in tail_factors))
    if candidates > _WALK_BUDGET:
        raise Inconclusive(
            f"cannot factor bivariate polynomial {bipoly_str(shown)}: its "
            f"factor walk of {candidates} candidates exceeds {_WALK_BUDGET}")
    index: dict[Fraction, list] = {}
    for b, (b0, b1, b2) in _monic_divisors(tail_factors, xs):
        index.setdefault(b1 / b0, []).append((b, b0, b2))
    ratios = [(r1 / r0, r0, min(e0, e1)) for r0, e0 in roots0 for r1, e1 in roots1]
    one, y, found = UniPoly.const(1), BiPoly.var_y(), []
    for a, (a0, a1, a2) in _monic_divisors(lead_factors, xs):
        a_ratio = a1 / a0
        for ratio, r0, most in ratios:
            for b, b0, b2 in index.get(ratio * a_ratio, ()):
                c = r0 * a0 / b0
                if h2.evaluate(c * b2 / a2):
                    continue
                ax = prod((q**k for q, k in a), start=one)
                bx = prod((q**k for q, k in b), start=one).scale(c)
                factor = BiPoly.from_uni(ax, "x") * y - BiPoly.from_uni(bx, "x")
                for _ in range(most):
                    quo = bipoly_exact_div(h, factor)
                    if quo is None:
                        break
                    found.append(factor)
                    h = quo
    return found, h


def _mirrors(h: BiPoly):
    """h as it is, then with x and y swapped, each with the map back."""
    yield "x", h, lambda p: p
    yield "y", h.swap_xy(), BiPoly.swap_xy


def factor_bipoly(g: BiPoly, reg: AtomRegistry) -> dict[BiAtom, int]:
    """The atoms of a nonzero bivariate polynomial and their exponents, none
    for a constant: g = c * prod(atom^e), c the content
    `g.primitive_int()[0]`, since each atom is primitive with a positive
    leading coefficient and content is multiplicative (Gauss's lemma).

    The content in Q[x] and then the content in Q[y] (`bipoly_content`) are
    divided out once each and factored by `factor_uni`. What is left, and
    every leftover of a factor, has no content and is never tested for it
    again: it is a constant, or irreducible once linear in one variable, or
    else it splits off its factors linear in y or in x by
    `_linear_factors_in_y`. Every divisor class the engine handles is linear
    in x or in y, so a piece with no such factor raises Inconclusive.
    """
    if g.is_zero:
        raise ZeroDivisionError("cannot factor the zero function")
    exps: dict[BiAtom, int] = {}

    def bump(piece: BiPoly, e: int = 1) -> None:
        atom = reg.bi(piece.primitive_int()[1])
        exps[atom] = exps.get(atom, 0) + e

    h = g
    for var in ("x", "y"):
        content, h = bipoly_content(h, var)
        if content.degree > 0:
            for q, k in factor_uni(content)[1]:  # content is monic
                bump(BiPoly.from_uni(q, var), k)
    # h is now a constant or of positive degree in both variables
    while h.deg_y > 0:
        if h.deg_y == 1 or h.deg_x == 1:
            bump(h)  # primitive and linear in one variable, hence irreducible
            break
        for _, p, back in _mirrors(h):
            factors, rest = _linear_factors_in_y(p, h)
            for factor in factors:
                bump(back(factor))
            if factors:
                h = back(rest)
                break
        else:
            raise Inconclusive(
                f"cannot factor bivariate polynomial {bipoly_str(h)}: it "
                "has no factor linear in x or in y")
    return exps


# -- the class map ----------------------------------------------------------


def factor_into_atoms(num: UniPoly | BiPoly, den: UniPoly | BiPoly,
                      reg: AtomRegistry) -> dict[Atom, int]:
    """The atoms of num/den and their exponents, num and den both in Q[t],
    with monic irreducible atoms (`factor_uni`), or both in Q[x, y]
    (`factor_bipoly`). A constant side has no atoms and is not factored."""
    if num.is_zero:
        raise ZeroDivisionError("cannot factor the zero function")
    exps: dict[Atom, int] = {}
    for p, sign in ((num, 1), (den, -1)):
        if isinstance(p, UniPoly):
            pieces = [(reg.uni(q), k) for q, k in factor_uni(p)[1]] if p.degree else []
        else:  # the last term, in (i, j) order, is x^0*y^0 only for a constant
            pieces = factor_bipoly(p, reg).items() if p.iterms[-1][0] != (0, 0) else []
        for a, e in pieces:
            exps[a] = exps.get(a, 0) + sign * e
    return {a: e for a, e in exps.items() if e}


def mult_vec(f, reg: AtomRegistry, field: str = "Qt") -> MultVec:
    """Multiplicative class of a nonzero function as a MultVec.

    Accepts Fraction/int (field 'Qt' unless told otherwise), RatFunc
    (fields 'Qt'/'Qv'), or BiFrac (field 'Qxy', whatever `field` says).
    A class is computed once per registry; a refusal is not remembered.
    """
    # keyed by the value's stored integers, whose tuple hashes in a fraction
    # of the time a value built afresh (as every parsed one is) takes
    if isinstance(f, RatFunc):
        key = (field, f.num.den, f.num.ints, f.den.den, f.den.ints)
    elif isinstance(f, BiFrac):
        field = "Qxy"
        key = (field, f.num.den, f.num.iterms, f.den.den, f.den.iterms)
    elif isinstance(f, (int, Fraction)):
        key = (field, f.numerator, f.denominator)
    else:
        raise TypeError(f"cannot take the class of {type(f).__name__}")
    vec = reg._classes.get(key)
    if vec is None:
        vec = reg._classes[key] = _class_of(f, reg, field)
    return vec


def _class_of(f, reg: AtomRegistry, field: str) -> MultVec:
    """The class of f as `mult_vec` defines it: the class of its constant,
    classed first, plus its atoms (see the module docstring)."""
    if not isinstance(f, (RatFunc, BiFrac)):
        return MultVec.make(field, constant_class(Q(f), reg, field))
    if f.num.is_zero:
        raise ZeroDivisionError("cannot factor the zero function")
    if isinstance(f, RatFunc):
        const = f.num.leading / f.den.leading
    else:
        const = f.num.primitive_int()[0] / f.den.primitive_int()[0]
    out: dict[Atom, Fraction] = constant_class(const, reg, field)
    for a, e in factor_into_atoms(f.num, f.den, reg).items():
        out[a] = out.get(a, ZERO) + e
    return MultVec.make(field, out)


def one_minus(f, reg: AtomRegistry, field: str = "Qt") -> MultVec:
    """Class of 1 - f. Raises OneMinusOfOne when f is identically 1."""
    if isinstance(f, (RatFunc, BiFrac)):
        return mult_vec(f.one_minus(), reg, field)
    if f == 1:
        raise OneMinusOfOne("1 - f is identically zero")
    return mult_vec(1 - f, reg, field)
