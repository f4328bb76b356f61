"""Multiplicative classes: atoms, the atom registry, and class vectors.

A MultVec is the class of a nonzero function in F*/torsion tensored with Q,
written on a basis of atoms: prime integers, monic irreducible univariate
polynomials, or registered irreducible bivariate polynomials. Signs die in
the tensor, so class(-2) = class(2) and class(-1) = 0.

Atoms compare by a mathematical key (never by creation order), so every run
and every registry produce the same canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Inconclusive, MixedFields, OneMinusOfOne
from .expressions import BiFrac, RatFunc
from .integers import factor_positive_int
from .polynomials import (ZERO, BiPoly, UniPoly, bipoly_div_uni,
                          bipoly_exact_div, bipoly_str, cached_hash,
                          factor_uni, field_state, gcd_uni, num_str,
                          poly_str, set_field_state)

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
        return (1, self.poly.degree, self.poly.coeffs)


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
        return (2, self.poly.deg_x, self.poly.deg_y, self.poly.terms)


Atom = PrimeAtom | UniAtom | BiAtom


def atom_str(a: Atom, field: str) -> str:
    if isinstance(a, PrimeAtom):
        return num_str(a.p)
    if isinstance(a, UniAtom):
        var = FIELD_VARS.get(field)
        return poly_str(a.poly, var if isinstance(var, str) else "t")
    return bipoly_str(a.poly)


class AtomRegistry:
    """Append-only interning table for atoms: one atom object per value.

    Registered bivariate atoms double as the trial-division list when a
    bivariate polynomial is not linear in either variable.
    """

    def __init__(self) -> None:
        self._primes: dict[int, PrimeAtom] = {}
        self._uni: dict[tuple, UniAtom] = {}
        self._bi: dict[tuple, BiAtom] = {}

    def prime(self, p: int) -> PrimeAtom:
        atom = self._primes.get(p)
        if atom is None:
            atom = PrimeAtom(p)
            self._primes[p] = atom
        return atom

    def uni(self, poly: UniPoly) -> UniAtom:
        if poly.is_zero or poly.leading != 1:
            raise ValueError("univariate atoms must be monic and nonzero")
        key = poly.coeffs
        atom = self._uni.get(key)
        if atom is None:
            atom = UniAtom(poly)
            self._uni[key] = atom
        return atom

    def bi(self, poly: BiPoly) -> BiAtom:
        key = poly.terms
        atom = self._bi.get(key)
        if atom is None:
            atom = BiAtom(poly)
            self._bi[key] = atom
        return atom

    def known_bi_polys(self) -> tuple[BiPoly, ...]:
        return tuple(a.poly for a in self._bi.values())


@dataclass(frozen=True)
class MultVec:
    """Q-linear combination of atoms; the class of a function, or any
    Q-combination of such classes."""

    field: str
    coeffs: tuple[tuple[Atom, Fraction], ...]

    @staticmethod
    def make(field: str, mapping: dict[Atom, Fraction]) -> "MultVec":
        items = [(a, c if type(c) is Fraction else Q(c))
                 for a, c in mapping.items() if c]
        items.sort(key=lambda ac: ac[0].sort_key())
        return MultVec(field, tuple(items))

    @staticmethod
    def zero(field: str) -> "MultVec":
        return MultVec(field, ())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def as_dict(self) -> dict[Atom, Fraction]:
        return dict(self.coeffs)

    def __add__(self, other: "MultVec") -> "MultVec":
        if self.field != other.field:
            raise MixedFields(f"{self.field} vs {other.field}")
        d = self.as_dict()
        for a, c in other.coeffs:
            d[a] = d.get(a, ZERO) + c
        return MultVec.make(self.field, d)

    def __sub__(self, other: "MultVec") -> "MultVec":
        return self + other.scale(-1)

    def scale(self, c) -> "MultVec":
        if type(c) is not Fraction:
            c = Q(c)
        if not c:
            return MultVec.zero(self.field)
        return MultVec(self.field, tuple((a, c * v) for a, v in self.coeffs))


def constant_class(c: Fraction, reg: AtomRegistry, field: str) -> dict[Atom, Fraction]:
    """Prime-atom exponents of a nonzero rational constant, sign dropped."""
    if c == 0:
        raise ZeroDivisionError("the multiplicative class of 0 is undefined")
    out: dict[Atom, Fraction] = {}
    for p, e in factor_positive_int(abs(c.numerator)).items():
        out[reg.prime(p)] = out.get(reg.prime(p), ZERO) + e
    for p, e in factor_positive_int(c.denominator).items():
        out[reg.prime(p)] = out.get(reg.prime(p), ZERO) - e
    return out


def factor_into_atoms(num: UniPoly, den: UniPoly, reg: AtomRegistry
                      ) -> tuple[Fraction, dict[UniAtom, int]]:
    """num/den = constant * prod(atom^e) with monic irreducible atoms.

    The constant keeps its sign; dropping it is the class map's job.
    """
    if num.is_zero:
        raise ZeroDivisionError("cannot factor the zero function")
    cn, fn = factor_uni(num)
    cd, fd = factor_uni(den)
    exps: dict[UniAtom, int] = {}
    for poly, e in fn:
        exps[reg.uni(poly)] = exps.get(reg.uni(poly), 0) + e
    for poly, e in fd:
        a = reg.uni(poly)
        exps[a] = exps.get(a, 0) - e
        if exps[a] == 0:
            del exps[a]
    return cn / cd, exps


# -- bivariate factoring ----------------------------------------------------


def _uni_content_of_bipoly_in_y(g: BiPoly) -> UniPoly:
    """gcd over x of the y-coefficients (monic), the 'content' in Q[x][y]."""
    content = UniPoly(())
    for cj in g.y_coefficients():
        if cj.is_zero:
            continue
        content = cj.monic() if content.is_zero else gcd_uni(content, cj)
        if content.degree == 0:
            return UniPoly.const(1)
    return content


def factor_bipoly(g: BiPoly, reg: AtomRegistry) -> tuple[Fraction, dict[BiAtom, int]]:
    """Factor a nonzero bivariate polynomial into registered atoms.

    Pieces linear in one of the variables are certified irreducible by the
    primitive-part criterion; everything else must divide out against atoms
    already in the registry, otherwise Inconclusive is raised.
    """
    if g.is_zero:
        raise ZeroDivisionError("cannot factor the zero function")
    const = Q(1)
    exps: dict[BiAtom, int] = {}

    def bump(piece: BiPoly, e: int = 1) -> None:
        nonlocal const
        c, prim = piece.primitive_int()
        const *= c**e
        atom = reg.bi(prim)
        exps[atom] = exps.get(atom, 0) + e

    def bump_uni(p: UniPoly, var: str) -> None:
        nonlocal const
        cp, factors = factor_uni(p)
        const *= cp
        for q, k in factors:
            bump(BiPoly.from_uni(q, var), k)

    h = g
    # a leftover of content removal or trial division goes round again, so it
    # is tested again for content and for linearity in either variable
    while True:
        if h.deg_x <= 0 and h.deg_y <= 0:
            const *= h.evaluate(0, 0)
            break
        if h.deg_y <= 0:
            bump_uni(h.subst_y(0), "x")
            break
        if h.deg_x <= 0:
            bump_uni(h.subst_x(0), "y")
            break
        content = _uni_content_of_bipoly_in_y(h)
        if content.degree > 0:
            bump_uni(content, "x")
            h = bipoly_div_uni(h, content)
            continue
        if h.deg_y == 1:
            bump(h)  # primitive and linear in y, hence irreducible
            break
        content = _uni_content_of_bipoly_in_y(h.swap_xy())
        if content.degree > 0:
            bump_uni(content, "y")
            h = bipoly_div_uni(h.swap_xy(), content).swap_xy()
            continue
        if h.deg_x == 1:
            bump(h)
            break
        for candidate in sorted(reg.known_bi_polys(),
                                key=lambda p: (p.deg_x, p.deg_y, p.terms)):
            quo = bipoly_exact_div(h, candidate)
            if quo is not None:
                bump(candidate)
                h = quo
                break
        else:
            raise Inconclusive(
                f"cannot factor bivariate polynomial {bipoly_str(h)}: not "
                "linear in either variable and no registered atom divides it")
    return const, exps


def factor_into_atoms_bi(num: BiPoly, den: BiPoly, reg: AtomRegistry
                         ) -> tuple[Fraction, dict[BiAtom, int]]:
    if num.is_zero:
        raise ZeroDivisionError("cannot factor the zero function")
    cn, en = factor_bipoly(num, reg)
    cd, ed = factor_bipoly(den, reg)
    for a, e in ed.items():
        en[a] = en.get(a, 0) - e
        if en[a] == 0:
            del en[a]
    return cn / cd, en


# -- the class map ----------------------------------------------------------


def mult_vec(f, reg: AtomRegistry, field: str = "Qt") -> MultVec:
    """Multiplicative class of a nonzero function as a MultVec.

    Accepts Fraction/int (field 'Q' unless told otherwise), RatFunc
    (fields 'Qt'/'Qv'), or BiFrac (field 'Qxy').
    """
    if isinstance(f, RatFunc):
        const, exps = factor_into_atoms(f.num, f.den, reg)
        out: dict[Atom, Fraction] = constant_class(const, reg, field)
        for a, e in exps.items():
            out[a] = out.get(a, ZERO) + e
        return MultVec.make(field, out)
    if isinstance(f, BiFrac):
        const, exps = factor_into_atoms_bi(f.num, f.den, reg)
        out = constant_class(const, reg, "Qxy")
        for a, e in exps.items():
            out[a] = out.get(a, ZERO) + e
        return MultVec.make("Qxy", out)
    if type(f) is Fraction or type(f) is int or isinstance(f, (int, Fraction)):
        return MultVec.make(field, constant_class(Q(f), reg, field))
    raise TypeError(f"cannot take the class of {type(f).__name__}")


def one_minus(f, reg: AtomRegistry, field: str = "Qt") -> MultVec:
    """Class of 1 - f. Raises OneMinusOfOne when f is identically 1."""
    if type(f) is Fraction or type(f) is int or (
            not isinstance(f, (RatFunc, BiFrac)) and isinstance(f, (int, Fraction))):
        c = Q(1) - Q(f)
        if c == 0:
            raise OneMinusOfOne("1 - f is identically zero")
        return MultVec.make(field, constant_class(c, reg, field))
    return mult_vec(f.one_minus(), reg, field)
