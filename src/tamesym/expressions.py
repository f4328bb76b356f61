"""Rational functions in one variable and ratios of bivariate polynomials.

RatFunc is kept fully reduced (monic denominator, coprime with the
numerator) so that equality and hashing are structural. BiFrac is a raw
numerator/denominator pair: surface-level classes are computed atomwise, so
reducing the pair buys nothing and bivariate gcds are deliberately avoided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import OneMinusOfOne
from .polynomials import BiPoly, UniPoly, gcd_uni, multiplicity_at, poly_str

Q = Fraction


class _InfinityValue:
    """Point at infinity of the projective line, used as an evaluation value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = _InfinityValue()


@dataclass(frozen=True)
class RatFunc:
    num: UniPoly
    den: UniPoly

    @staticmethod
    def make(num: UniPoly, den: UniPoly | None = None) -> "RatFunc":
        if den is None:
            den = UniPoly.const(1)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return RatFunc(UniPoly(()), UniPoly.const(1))
        g = gcd_uni(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        return RatFunc.coprime(num, den)

    @staticmethod
    def coprime(num: UniPoly, den: UniPoly) -> "RatFunc":
        """num/den for coprime num and den != 0: no gcd, den made monic."""
        lead = den.leading
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        return RatFunc(num, den)

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc.make(UniPoly.const(c))

    @staticmethod
    def var() -> "RatFunc":
        return RatFunc.make(UniPoly.var())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def constant_value(self) -> Fraction | None:
        if self.num.degree <= 0 and self.den.degree == 0:
            return self.num.coeff(0) / self.den.coeff(0) if not self.num.is_zero else Q(0)
        return None

    @property
    def is_poly(self) -> bool:
        """den == 1; a reduced fraction has a monic denominator, so this is
        the same as a constant denominator."""
        return len(self.den.coeffs) == 1

    # Sums, products and powers of polynomials need no gcd: each closed form
    # below is what make() returns.

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.is_poly and other.is_poly:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc.make(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if self.is_poly and other.is_poly:
            return RatFunc(self.num - other.num, self.den)
        return RatFunc.make(self.num * other.den - other.num * self.den,
                            self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.is_poly and other.is_poly:
            return RatFunc(self.num * other.num, self.den)
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc.make(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RatFunc.coprime(self.den**(-n), self.num**(-n))
        # powers of coprime num and monic den stay coprime and monic
        return RatFunc(self.num**n, self.den**n)

    def one_minus(self) -> "RatFunc":
        """1 - f = (den - num)/den, rejecting f identically 1. Already
        reduced: den stays monic and gcd(den - num, den) = gcd(num, den) = 1."""
        num = self.den - self.num
        if num.is_zero:
            raise OneMinusOfOne("1 - f is identically zero")
        return RatFunc(num, self.den)

    def order_at_rational(self, c) -> int:
        """Order of vanishing at t = c (negative at a pole)."""
        up = 0 if self.num.is_zero else multiplicity_at(self.num, c)
        down = multiplicity_at(self.den, c)
        return up - down

    def order_at_infinity(self) -> int:
        return self.den.degree - self.num.degree

    def evaluate(self, c):
        """Value at a rational point, INF at a pole."""
        c = c if isinstance(c, Fraction) else Fraction(c)
        dv = self.den.evaluate(c)
        nv = self.num.evaluate(c)
        if dv != 0:
            return nv / dv
        if nv != 0:
            return INF
        # indeterminate form cannot happen on a reduced fraction
        raise AssertionError("reduced fraction with a common root")

    def evaluate_at_infinity(self):
        k = self.order_at_infinity()
        if k > 0:
            return Q(0)
        if k < 0:
            return INF
        return self.num.leading / self.den.leading

    def evaluate_projective(self, c):
        """Value at a point of the projective line (c may be INF)."""
        if c is INF:
            return self.evaluate_at_infinity()
        return self.evaluate(c)

    def key(self) -> tuple:
        return (self.num.degree, self.den.degree, self.num.coeffs, self.den.coeffs)

    def __str__(self) -> str:
        return ratfunc_str(self, "t")


def ratfunc_str(f: RatFunc, var: str) -> str:
    if f.den.degree == 0 and f.den.coeff(0) == 1:
        return poly_str(f.num, var)
    return f"({poly_str(f.num, var)})/({poly_str(f.den, var)})"


_BI_ONE = BiPoly.const(1)


@dataclass(frozen=True)
class BiFrac:
    """Unreduced ratio of bivariate polynomials."""

    num: BiPoly
    den: BiPoly

    @staticmethod
    def make(num: BiPoly, den: BiPoly | None = None) -> "BiFrac":
        if den is None:
            den = _BI_ONE
        if den.is_zero:
            raise ZeroDivisionError("bivariate fraction with zero denominator")
        return BiFrac(num, den)

    @staticmethod
    def const(c) -> "BiFrac":
        return BiFrac.make(BiPoly.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "BiFrac") -> "BiFrac":
        if self.den == other.den == _BI_ONE:
            return BiFrac(self.num + other.num, self.den)
        return BiFrac.make(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    def __sub__(self, other: "BiFrac") -> "BiFrac":
        if self.den == other.den == _BI_ONE:
            return BiFrac(self.num - other.num, self.den)
        return BiFrac.make(self.num * other.den - other.num * self.den,
                           self.den * other.den)

    def __neg__(self) -> "BiFrac":
        return BiFrac(-self.num, self.den)

    def __mul__(self, other: "BiFrac") -> "BiFrac":
        return BiFrac.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "BiFrac") -> "BiFrac":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return BiFrac.make(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "BiFrac":
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return BiFrac(self.den**(-n), self.num**(-n))
        return BiFrac(self.num**n, self.den**n)

    def one_minus(self) -> "BiFrac":
        out = BiFrac.make(self.den - self.num, self.den)
        if out.is_zero:
            raise OneMinusOfOne("1 - f is identically zero")
        return out
