"""Rational functions in one variable and ratios of bivariate polynomials.

RatFunc is kept fully reduced (monic denominator, coprime with the
numerator) so that equality and hashing are structural: both compare the
polynomials' stored integer forms, and a monic or constant denominator is
read from them (`is_monic`, `degree`) with no Fraction built. BiFrac is a raw
numerator/denominator pair: surface-level classes are computed atomwise, so
reducing the pair buys nothing and bivariate gcds are deliberately avoided.
Both take their arithmetic from one base, `_Ratio`, and keep their own
`make`, constructors and powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import OneMinusOfOne
from .polynomials import BiPoly, UniPoly, gcd_uni, poly_str

Q = Fraction

_ONE = UniPoly.const(1)


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


class _Ratio:
    """num/den arithmetic. Only a result that may need reducing goes
    through `make`: sums and products of polynomials, negation and 1 - f
    stay as reduced as their operands."""

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_poly(self) -> bool:
        """den == 1, most often `_one` itself, as make, const and var leave
        it; for a reduced RatFunc, the same as a constant denominator."""
        return self.den is self._one or self.den == self._one

    def __add__(self, other):
        if self.is_poly and other.is_poly:
            return type(self)(self.num + other.num, self.den)
        return self.make(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    def __sub__(self, other):
        if self.is_poly and other.is_poly:
            return type(self)(self.num - other.num, self.den)
        return self.make(self.num * other.den - other.num * self.den,
                         self.den * other.den)

    def __neg__(self):
        return type(self)(-self.num, self.den)

    def __mul__(self, other):
        if self.is_poly and other.is_poly:
            return type(self)(self.num * other.num, self.den)
        return self.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return self.make(self.num * other.den, self.den * other.num)

    def one_minus(self):
        """1 - f = (den - num)/den, rejecting f identically 1. gcd(den - num,
        den) = gcd(num, den), so a reduced f gives a reduced 1 - f."""
        num = self.den - self.num
        if num.is_zero:
            raise OneMinusOfOne("1 - f is identically zero")
        return type(self)(num, self.den)


@dataclass(frozen=True)
class RatFunc(_Ratio):
    num: UniPoly
    den: UniPoly

    _one = _ONE

    @staticmethod
    def make(num: UniPoly, den: UniPoly | None = None) -> "RatFunc":
        if den is None:
            den = _ONE
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return RatFunc(num, _ONE)
        g = gcd_uni(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        return RatFunc.coprime(num, den)

    @staticmethod
    def coprime(num: UniPoly, den: UniPoly) -> "RatFunc":
        """num/den for coprime num and den != 0: no gcd, den made monic."""
        if not den.is_monic:
            num, den = num.scale(1 / den.leading), den.monic()
        return RatFunc(num, den)

    # a polynomial over 1 is already reduced: no gcd
    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(UniPoly.const(c), _ONE)

    @staticmethod
    def var() -> "RatFunc":
        return RatFunc(UniPoly.var(), _ONE)

    def constant_value(self) -> Fraction | None:
        if self.num.degree <= 0 and self.den.degree == 0:
            return self.num.coeff(0) / self.den.coeff(0) if not self.num.is_zero else Q(0)
        return None

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            den = self.den if self.is_poly else self.den**(-n)
            return RatFunc.coprime(den, self.num**(-n))
        # powers of coprime num and monic den stay coprime and monic
        return RatFunc(self.num**n, self.den if self.is_poly else self.den**n)

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
        (dn, cn), (dd, cd) = self.num.key(), self.den.key()
        return (dn, dd, cn, cd)

    def __str__(self) -> str:
        return ratfunc_str(self, "t")


def ratfunc_str(f: RatFunc, var: str) -> str:
    if f.den.degree == 0:
        return poly_str(f.num, var)
    return f"({poly_str(f.num, var)})/({poly_str(f.den, var)})"


_BI_ONE = BiPoly.const(1)


@dataclass(frozen=True)
class BiFrac(_Ratio):
    """Unreduced ratio of bivariate polynomials."""

    num: BiPoly
    den: BiPoly

    _one = _BI_ONE

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

    def __pow__(self, n: int) -> "BiFrac":
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return BiFrac(self.den**(-n), self.num**(-n))
        return BiFrac(self.num**n, self.den**n)
