"""Exact univariate and bivariate polynomial arithmetic over Q.

Everything here is stdlib-only and exact; no operation ever rounds. A
polynomial has one stored form, FLINT's fmpq_poly layout: integer
coefficients over one denominator den > 0 coprime to their content (the
content and primitive part of von zur Gathen & Gerhard, Modern Computer
Algebra, 6.2), and no zero term. `UniPoly` is (den, ints), lowest degree
first; `BiPoly` is (den, iterms), ((i, j), v) terms sorted by exponent. The
form is canonical, so equality compares it directly; `over` brings any
integer result to it. The kernels run on the stored integers: `_zmul`
multiplies coefficient lists and a power squares and multiplies them
(`_power`, the one ladder, which `BiPoly` powers and `modular.mod_pow`
share), with no gcd; both come from `modular`. `_zdivmod`, `_zgcd` and
`_zyun` serve `divmod`, `gcd_uni` and `squarefree_decomposition`. A gcd is
found by evaluation (GCDHEU, `_zheu`): the integer gcd of the two values at
a large enough point, read back as a polynomial, is accepted only when it
divides both inputs exactly, which certifies it, and those quotients are
its cofactors; a primitive remainder sequence is the fallback. Yun's split
takes its quotients from the cofactors.
Fractions are built only on request: `make` reads them, and `coeffs`,
`terms`, `coeff`, `leading` and `evaluate` give them back.

`factor_uni` keeps integer lists from the primitive part of f through its
squarefree parts (Yun) to `_squarefree_factors`, and makes each factor
monic; `rational_roots` are its factors of degree 1. Rational roots come
from a walk over bounded pairs of divisors of the end coefficients
(`_zroots`) or, past that bound, from the same lift as every other factor:
factor-degree patterns modulo small primes certify most irreducibles (Knuth,
TAOCP vol. 2, 4.6.2), and the rest are split modulo a prime, Hensel-lifted
and recombined (Zassenhaus), with the arithmetic over F_p in `modular`.
`factor_uni` and `irreducible_check_uni` certify an answer or raise
Inconclusive; they never guess, and the answer depends on f alone.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, zip_longest
from math import gcd as int_gcd
from math import lcm, prod

from .errors import Inconclusive, TooManyDigits
from .integers import divisors, factor_positive_int
from .modular import (_power, _zmul, equal_degree_split, factor_degree_pattern,
                      hensel_lift, mod_mul)

Q = Fraction
ZERO = Q(0)   # the shared default of dict probes; Fractions are immutable


def cached_hash(self) -> int:
    """__hash__ of a frozen value type: the hash of its stored fields,
    `field_state`, computed once and kept in the `_hash` slot. The stored
    form is canonical, so equal values hash alike."""
    try:
        return self._hash
    except AttributeError:
        h = hash(field_state(self))
        object.__setattr__(self, "_hash", h)
        return h


def field_state(self):
    """__getstate__ of such a type for copy and pickle: its fields, every
    slot but the last, `_hash`."""
    return tuple([getattr(self, name) for name in type(self).__slots__[:-1]])


def set_field_state(self, state) -> None:
    """__setstate__ of such a type; the frozen __setattr__ would refuse."""
    for name, value in zip(type(self).__slots__, state):
        object.__setattr__(self, name, value)


def _rational(v):
    """v itself, an int or a Fraction, whose numerator and denominator are
    read alike; anything else is refused."""
    if type(v) is int or type(v) is Fraction or isinstance(v, (int, Fraction)):
        return v
    raise TypeError(f"expected a rational number, got {type(v).__name__}")


def _divisor(den: int, vs) -> int:
    """gcd(den, *vs) with the sign of den: den and vs divided by it give a
    positive den coprime to the content of vs."""
    if den == 1:
        return 1
    g = int_gcd(den, *vs)
    return -g if den < 0 else g


# Tuples here are built from lists, never from generators: CPython sizes a
# tuple from a generator at 10 and then shrinks it, which drains one free
# list into the others and raised peak memory of factoring by about 1 MB.
# `wedges.expand_products` keeps the rule: with its result tuples built from
# generators, a 4-round `suite` benchmark run peaked 0.46-0.77 MB above the
# Fraction loops it replaced, against 0.1 MB when built from lists. A stored
# int is smaller than a Fraction, and is hashed, compared and printed as the
# Fraction of denominator 1 it stands for.


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial over Q, ints / den: the integer coefficients
    ints lowest degree first with no trailing zero, and den > 0 coprime to
    their content. The zero polynomial is (1, ()), of degree -1."""

    __slots__ = ("den", "ints", "_hash")
    den: int
    ints: tuple[int, ...]

    __hash__ = cached_hash
    __getstate__ = field_state
    __setstate__ = set_field_state

    @staticmethod
    def over(den: int, ints) -> "UniPoly":
        """ints / den in stored form, for den != 0 and an integer sequence
        ints, lowest degree first, which is left unchanged."""
        n = len(ints)
        while n and not ints[n - 1]:
            n -= 1
        if n < len(ints):
            ints = ints[:n]
        g = _divisor(den, ints)
        return UniPoly(den // g, tuple(ints if g == 1 else [v // g for v in ints]))

    @staticmethod
    def make(seq) -> "UniPoly":
        """From rational coefficients, lowest degree first."""
        cs = [_rational(c) for c in seq]
        den = lcm(*[c.denominator for c in cs])
        return UniPoly.over(den, [c.numerator * (den // c.denominator) for c in cs])

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly.make([c])

    @staticmethod
    def var() -> "UniPoly":
        return UniPoly(1, (0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The Fraction coefficients, lowest degree first, built per call."""
        return tuple([Q(v, self.den) for v in self.ints])

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def is_monic(self) -> bool:
        return bool(self.ints) and self.ints[-1] == self.den

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Q(self.ints[-1], self.den)

    def coeff(self, i: int) -> Fraction:
        return Q(self.ints[i], self.den) if 0 <= i < len(self.ints) else ZERO

    def _combine(self, other: "UniPoly", sign: int) -> "UniPoly":
        """self + sign * other, over the lcm of the denominators."""
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, sign * (den // other.den)
        return UniPoly.over(den, [x * ma + y * mb for x, y in
                                  zip_longest(self.ints, other.ints, fillvalue=0)])

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.den, tuple([-v for v in self.ints]))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly.over(self.den * other.den, _zmul(self.ints, other.ints))

    def scale(self, c) -> "UniPoly":
        c = _rational(c)
        return UniPoly.over(self.den * c.denominator,
                            [v * c.numerator for v in self.ints])

    def __pow__(self, n: int) -> "UniPoly":
        """den^n over the n-th power of ints: both stay coprime, since the
        content of a power is the power of the content, so no gcd."""
        if n < 0:
            raise ValueError("negative polynomial power")
        if not n:
            return UniPoly(1, (1,))
        return UniPoly(self.den ** n, tuple(_power(self.ints, n, _zmul)))

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.ints) < len(other.ints):
            return UniPoly(1, ()), self
        b = _zprim(other.ints)
        g = other.ints[-1] // b[-1]
        # d*ints = quot*b + rem, and other = (g/other.den) * b
        d, quot, rem = _zdivmod(self.ints, b)
        return (UniPoly.over(d * self.den * g, [q * other.den for q in quot]),
                UniPoly.over(d * self.den, rem))

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def monic(self) -> "UniPoly":
        """ints over its leading coefficient."""
        if self.is_zero or self.is_monic:
            return self
        return UniPoly.over(self.ints[-1], self.ints)

    def evaluate(self, x) -> Fraction:
        """f(x), by Horner's rule on ints."""
        if not self.ints:
            return Q(0)
        x = _rational(x)
        return Q(_homogeneous_value(self.ints, x.numerator, x.denominator),
                 self.den * x.denominator ** self.degree)

    def key(self) -> tuple:
        """(degree, coefficients), ints standing for Fractions of den 1."""
        return (len(self.ints) - 1, self.ints if self.den == 1 else self.coeffs)

    def __str__(self) -> str:
        return poly_str(self, "t")


def num_str(v) -> str:
    """str(v) for every rendered number; one past the interpreter's int-to-str
    limit is refused by name, and the process-wide limit is left alone."""
    try:
        return str(v)
    except ValueError:
        n = max(abs(v.numerator), v.denominator)
        digits = next(k for k in count(int(n.bit_length() * 0.30103) - 1) if n < 10 ** k)
        raise TooManyDigits(f"cannot render a number of {digits} digits, above "
                            f"the limit of {sys.get_int_max_str_digits()}") from None


def sum_str(terms, sep: str = "") -> str:
    """Canonical text of a signed Q-combination of (c, body) terms, each c
    a nonzero rational, in the order given: a magnitude of 1 is left out,
    an empty body is the bare magnitude, each sign is its term's operator,
    set off by sep on both sides; no terms is "0"."""
    parts: list[str] = []
    for c, body in terms:
        neg = c.numerator < 0
        mag = -c if neg else c
        piece = (num_str(mag) if not body else body if mag == 1
                 else f"{num_str(mag)}*{body}")
        if parts:
            parts.append(f"{sep}{'-' if neg else '+'}{sep}{piece}")
        else:
            parts.append(f"-{piece}" if neg else piece)
    return "".join(parts) or "0"


def _power_str(var: str, i: int) -> str:
    return var if i == 1 else f"{var}^{i}"


def poly_str(p: UniPoly, var: str) -> str:
    """Canonical text form, highest degree first, explicit '*' and '^'."""
    cs = p.ints if p.den == 1 else p.coeffs
    return sum_str([(c, _power_str(var, i) if i else "")
                    for i, c in reversed(list(enumerate(cs))) if c])


# -- integer kernels ---------------------------------------------------------


def _zdivmod(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """Integer pseudo-division of a by b, with b[-1] != 0.

    Returns (d, quot, rem) with d*a = quot*b + rem, deg rem < deg b and no
    trailing zeros in rem (quot = [] and rem = a when deg a < deg b). d
    divides lc(b)^(deg a - deg b + 1), the multiplier of classic
    pseudo-division: a step scales the remainder and the quotient so far
    only by the part of lc(b) that the current leading coefficient lacks, so
    d = 1 whenever the quotient has integer coefficients, which includes
    every division by a monic b.
    """
    lc = b[-1]
    nb = len(b) - 1
    rem = list(a)
    quot = [0] * (len(a) - nb)
    d = 1
    for k in range(len(quot) - 1, -1, -1):
        top = rem.pop()
        if not top:
            continue
        if top % lc:
            m = lc // int_gcd(top, lc)
            d *= m
            top *= m
            rem = [m * v for v in rem]
            for i in range(k + 1, len(quot)):
                quot[i] *= m
        q = top // lc
        quot[k] = q
        rem[k:] = [r - q * c for r, c in zip(rem[k:], b)]
    while rem and not rem[-1]:
        rem.pop()
    return d, quot, rem


def _zprim(ints) -> list[int]:
    """ints divided by their content, with a positive leading coefficient."""
    g = int_gcd(*ints)
    if ints and ints[-1] < 0:
        g = -g
    return ints if g in (0, 1) else [v // g for v in ints]


def _zquo(a: list[int], b: list[int]) -> list[int] | None:
    """a / b when the integer polynomial b (b[-1] != 0) divides a over Z,
    else None, found at the first quotient coefficient that is not an
    integer; a primitive b divides a over Z exactly when it does over Q
    (Gauss's lemma)."""
    nb = len(b) - 1
    if len(a) <= nb:
        return None if a else []
    lc = b[-1]
    rem = list(a)
    quot = [0] * (len(a) - nb)
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem.pop(), lc)
        if r:
            return None
        if q:
            quot[k] = q
            rem[k:] = [v - q * c for v, c in zip(rem[k:], b)]
    return None if any(rem) else quot


def _zexact(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials that b divides over Z; raises otherwise
    (not by an assert, which python -O drops)."""
    quot = _zquo(a, b)
    if quot is None:
        raise ValueError("polynomial division was not exact")
    return quot


def _zheu(a: list[int], b: list[int], xi: int) -> tuple[list[int], ...] | None:
    """(g, a/g, b/g) for nonconstant integer polynomials a and b, g their
    gcd, primitive with a positive leading coefficient, or None (GCDHEU:
    Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989; Geddes, Czapor &
    Labahn, Algorithms for Computer Algebra, 7.7).

    G has the symmetric xi-adic digits of gcd(a(xi), b(xi)) as coefficients,
    so |cont(G)| <= xi/2, and g = pp(G) is accepted only if it divides a and
    b exactly. For xi >= 2 * min(|a|_inf, |b|_inf) + 2 that certifies it:
    the gcd is D = g * k, D(xi) divides G(xi), so k(xi) divides cont(G); each
    root of k is a root of a and of b, of modulus below
    1 + min(|a|_inf, |b|_inf) (Cauchy), so |k(xi)| > xi/2 unless k is 1."""
    va = vb = 0
    for c in reversed(a):
        va = va * xi + c
    for c in reversed(b):
        vb = vb * xi + c
    gamma, half, digits = int_gcd(va, vb), xi // 2, []
    while gamma:
        gamma, d = divmod(gamma, xi)
        if d > half:
            d -= xi
            gamma += 1
        digits.append(d)
    g = _zprim(digits)
    if len(g) == 1:
        return g, a, b
    ca = _zquo(a, g)
    cb = None if ca is None else _zquo(b, g)
    return None if cb is None else (g, ca, cb)


# evaluation points _zgcd_cofactors tries before the remainder sequence
_HEU_TRIES = 3


def _zgcd_cofactors(a: list[int], b: list[int]) -> tuple[list[int], ...]:
    """(g, a/g, b/g) for integer polynomials a and b, not both 0, g their
    gcd, primitive with a positive leading coefficient. Found by evaluation
    (`_zheu`) at points from 2 * min(|a|_inf, |b|_inf) + 2 up, each
    answer certified, and past _HEU_TRIES points by a primitive remainder
    sequence (`_zprs`) and two exact divisions. The first point is 256
    times that bound, plus 1, and each next one 2^16 times the last, plus 1:
    a common factor of the two values beside D(xi) enters cont(G), so a
    point at the bound itself failed on 1 in 10 of the gcds of the `factor`
    benchmark, and this margin on about 1 in 350."""
    if not a or not b:   # gcd(f, 0) is the primitive part of f
        g = _zprim(a or b)
    elif len(a) == 1 or len(b) == 1:
        return [1], a, b
    else:
        xi = 256 * (2 * min(max(map(abs, a)), max(map(abs, b))) + 2) + 1
        for _ in range(_HEU_TRIES):
            found = _zheu(a, b, xi)
            if found:
                return found
            xi = (xi << 16) + 1
        g = _zprs(_zprim(a), _zprim(b))
    return g, _zexact(a, g), _zexact(b, g)


def _zprs(a: list[int], b: list[int]) -> list[int]:
    """gcd of primitive integer polynomials with a positive leading
    coefficient, b nonzero: a primitive remainder sequence, each
    pseudo-remainder divided by its content (Knuth, TAOCP vol. 2, 4.6.1)."""
    while len(b) > 1:
        rem = _zdivmod(a, b)[2]
        if not rem:
            return b
        a, b = b, _zprim(rem)
    return [1]


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of integer polynomials, primitive with a positive leading
    coefficient ([] when both are 0), by `_zgcd_cofactors`."""
    return _zgcd_cofactors(a, b)[0] if a or b else []


def gcd_uni(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor."""
    if len(f.ints) == 1 or len(g.ints) == 1:
        return UniPoly(1, (1,))  # a nonzero constant is a unit
    h = _zgcd(f.ints, g.ints)
    return UniPoly.over(h[-1], h) if h else UniPoly(1, ())


# coprime divisor pairs past which _zroots leaves the roots to the lift:
# about where walking them costs what the lift does (see CHANGES.md)
_PAIR_WALK = 2**14


def _zroots(ints: list[int]) -> list[tuple[int, int]] | None:
    """The rational roots num/q (q > 0) of a primitive integer polynomial
    with ints[0] != 0 and degree >= 1, as (num, q) in lowest terms; None when
    the coprime pairs of divisors p | a_0 and q | a_n number more than
    _PAIR_WALK, or when the divisors of a_0 or the primes of a_n cannot be
    listed.

    The roots +-1 are divided out first, so that f(1) and f(-1) of what is
    left are not 0. A root p/q of that in lowest terms has p | a_0 and
    q | a_n, and q - p | f(1) and q + p | f(-1), so q != p; each coprime
    pair that passes is tested by the integer q^n * f(p/q)."""
    try:
        nums, primes = divisors(ints[0]), factor_positive_int(ints[-1])
    except Inconclusive:
        return None
    pairs = sum(prod(e + 1 for r, e in primes.items() if p % r) for p in nums)
    if pairs > _PAIR_WALK:
        return None
    roots = []
    for num in (1, -1):
        if not _homogeneous_value(ints, num, 1):
            roots.append((num, 1))
            ints = _zexact(ints, [-num, 1])
    f1, fm = sum(ints), sum(ints[::2]) - sum(ints[1::2])
    for p in nums:
        dens = [1]   # the divisors of a_n coprime to p
        for r, e in primes.items():
            if p % r:
                dens = [q * r**k for q in dens for k in range(e + 1)]
        for num in (p, -p):
            roots += [(num, q) for q in dens
                      if q != p and not f1 % (q - num) and not fm % (q + num)
                      and not _homogeneous_value(ints, num, q)]
    return roots


def grid_value(cols: list[list[int]], a: Fraction, b: Fraction) -> int:
    """q^m * s^n * h(p/q, r/s) for a = p/q, b = r/s and the integer
    polynomial h whose grid `BiPoly.int_columns` gives as cols (nonempty), m
    and n its degrees in x and y, h being a BiPoly's stored integers: Horner's
    rule in x along each column of y^j, then in y over the columns, both
    homogenised, so it is 0 exactly where h vanishes."""
    p, q = a.numerator, a.denominator
    return _homogeneous_value([_homogeneous_value(col, p, q) for col in cols],
                              b.numerator, b.denominator)


def grid_at_y(cols: list[list[int]], num: UniPoly, den: UniPoly) -> UniPoly:
    """den^n * h(x, num/den), for den != 0 and the integer polynomial h whose
    grid `BiPoly.int_columns` gives as cols, n its degree in y: Horner's
    rule in y on num and den as integer lists N = l*num and D = l*den, l the
    lcm of their denominators, over l^n."""
    if not cols:
        return UniPoly(1, ())
    n, l = len(cols) - 1, lcm(num.den, den.den)
    N = [v * (l // num.den) for v in num.ints]
    D = [v * (l // den.den) for v in den.ints]
    acc, dpow = cols[n], [1]
    for col in reversed(cols[:n]):
        dpow = _zmul(dpow, D)
        acc = [u + v for u, v in zip_longest(_zmul(acc, N), _zmul(col, dpow),
                                             fillvalue=0)]
    return UniPoly.over(l ** n, acc)


def _homogeneous_value(ints: list[int], p: int, q: int) -> int:
    """q^n * f(p/q) for f with integer coefficients ints, n = deg f."""
    acc = ints[-1]
    qk = 1
    for c in reversed(ints[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc


def _zyun(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on a primitive integer f: the nontrivial (a_i, i) with
    f = prod(a_i^i), the a_i squarefree, coprime and primitive (von zur
    Gathen & Gerhard, Modern Computer Algebra, 14.6). Each gcd comes with
    its cofactors (`_zgcd_cofactors`), which are the next b and c; every
    divisor is primitive, so every quotient is integral (Gauss's lemma)."""
    a, b, c = _zgcd_cofactors(f, [i * v for i, v in enumerate(f)][1:])
    out, i = [], 1
    while len(b) > 1:
        d = [x - k * y for k, (x, y) in enumerate(zip_longest(c, b[1:], fillvalue=0), 1)]
        while d and not d[-1]:
            d.pop()
        a, b, c = _zgcd_cofactors(b, d)
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """f = lc * prod(a_i^i) with the a_i squarefree, monic, pairwise coprime.
    Returns the nontrivial (a_i, i) pairs."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no squarefree decomposition")
    return [(UniPoly.over(a[-1], a), i) for a, i in _zyun(_zprim(f.ints))]


# -- irreducibility ---------------------------------------------------------


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    cand = 2
    while len(primes) < n:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


_PRIME_POOL = _first_primes(60)


def _subset_sums(degrees: list[int]) -> set[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


# recombination subsets tried before a polynomial is refused
_SUBSET_BUDGET = 2**14


def _squarefree_factors(ints: list[int], linear_only: bool = False) -> list[list[int]]:
    """Primitive irreducible factors of a primitive squarefree integer
    polynomial of degree >= 1; with linear_only, its factors of degree 1 and
    what is left of it past them.

    t and the rational roots that `_zroots` finds are divided out first, and
    then what is left has no factor of degree 1 or n - 1, so at degree 2 or
    3 it is irreducible outright. Where `_zroots` gives up, the feasible
    degrees start at 1 instead, and the lift below finds the linear factors
    too. Factor-degree patterns modulo usable primes bound the degrees of
    factors, which certifies most irreducibles. After 25 primes, or 4 in a
    row that neither shrink those degrees nor lower the fewest factors, the
    factors modulo the odd prime with the fewest are Hensel-lifted past
    2 * lc * (Landau-Mignotte bound) and recombined in subsets of increasing
    size (of size 1 alone with linear_only), each kept only if it divides
    exactly (Zassenhaus; von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 15). Past _SUBSET_BUDGET subsets Inconclusive is raised rather than
    guessing."""
    found = []
    if not ints[0]:
        found, ints = [[0, 1]], ints[1:]
    roots = _zroots(ints) if len(ints) > 1 else []
    low = 1 if roots is None else 2
    for num, q in roots or []:
        found.append([-num, q])
        ints = _zexact(ints, [-num, q])
    n = len(ints) - 1
    # below degree 2 * low what is left is irreducible (or 1); with its
    # roots stripped it has no factor of degree 1
    if n < 2 * low or linear_only and low == 2:
        return found + [ints] if n else found
    feasible = set(range(low, n - low + 1))
    best = None
    used = stale = 0
    for p in _PRIME_POOL:
        pieces = factor_degree_pattern(ints, p)
        if pieces is None:
            continue
        degrees = [d for g, d in pieces for _ in range((len(g) - 1) // d)]
        size = len(feasible)
        feasible &= _subset_sums(degrees)
        if not feasible:
            return found + [ints]
        stale = 0 if len(feasible) < size else stale + 1
        if p > 2 and (best is None or len(degrees) < best[0]):
            best, stale = (len(degrees), p, pieces), 0
        used += 1
        # 4, not 25, cut pattern calls on mixed products threefold
        if used >= 25 or stale >= 4:
            break
    if best is None:
        raise Inconclusive(f"cannot factor degree-{n} polynomial "
                           f"{UniPoly.over(ints[-1], ints)}: no usable odd prime")
    _, p, pieces = best
    bound = 2 * ints[-1] * 2**n * sum(map(abs, ints))  # 2 * lc * Landau-Mignotte
    m = p
    while m <= bound:
        m *= p
    monic = [c * pow(ints[-1], -1, m) % m for c in ints]
    lifted = [hensel_lift(monic, u, p, m) for g, d in pieces
              for u in equal_degree_split(g, d, p, random.Random(f"{p} {g}"))]
    tried, size = 0, 1
    whole = ints
    while 2 * size <= len(lifted) and (size == 1 or not linear_only):
        for pick in combinations(lifted, size):
            tried += 1
            if tried > _SUBSET_BUDGET:
                raise Inconclusive(f"cannot factor degree-{n} polynomial "
                                   f"{UniPoly.over(whole[-1], whole)}: over "
                                   f"{_SUBSET_BUDGET} recombination subsets")
            d = sum(len(u) - 1 for u in pick)
            if d not in feasible or len(ints) - 1 - d not in feasible:
                continue
            # the lc-scaled candidate's constant term divides lc * f(0)
            c0 = ints[-1] * prod(u[0] for u in pick) % m
            c0 -= m if 2 * c0 > m else 0
            if not c0 or ints[-1] * ints[0] % c0:
                continue
            g = [ints[-1]]
            for u in pick:
                g = mod_mul(g, u, m)
            g = [c - m if 2 * c > m else c for c in g]
            g = [c // int_gcd(*g) for c in g]
            quot = _zquo(ints, g)
            if quot is not None:
                found.append(g)
                ints, lifted = quot, [u for u in lifted if u not in pick]
                break
        else:
            size += 1
    return found + [ints]


def irreducible_check_uni(f: UniPoly) -> bool:
    """Certified irreducibility over Q for nonconstant f: True exactly when
    `factor_uni` finds f to be its own single factor."""
    return f.degree == 1 or factor_uni(f)[1] == [(f.monic(), 1)]


def factor_uni(f: UniPoly) -> tuple[Fraction, list[tuple[UniPoly, int]]]:
    """Factor f into monic irreducibles: f = c * prod(q_i^e_i), splitting
    each squarefree part (`_zyun`) of the primitive image by
    `_squarefree_factors`."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    c = f.leading
    # constants and linear polynomials are their own factorization
    if f.degree == 0:
        return c, []
    if f.degree == 1:
        return c, [(f.monic(), 1)]
    out: list[tuple[UniPoly, int]] = []
    for part, power in _zyun(_zprim(f.ints)):
        out += [(UniPoly.over(g[-1], g), power) for g in _squarefree_factors(part)]
    out.sort(key=lambda t: t[0].key())
    return c, out


def rational_roots(f: UniPoly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, sorted ascending: the degree-1
    factors of `factor_uni(f)`, found without splitting the others."""
    if f.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    return sorted([(Q(-g[0], g[1]), k) for part, k in _zyun(_zprim(f.ints))
                   for g in _squarefree_factors(part, linear_only=True) if len(g) == 2])


# ---------------------------------------------------------------------------
# bivariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiPoly:
    """Polynomial in x and y over Q, iterms / den: the terms ((i, j), v) of
    v * x^i * y^j with v a nonzero integer, sorted by (i, j), and den > 0
    coprime to their content."""

    __slots__ = ("den", "iterms", "_hash")
    den: int
    iterms: tuple[tuple[tuple[int, int], int], ...]

    __hash__ = cached_hash
    __getstate__ = field_state
    __setstate__ = set_field_state

    @staticmethod
    def over(den: int, items) -> "BiPoly":
        """The terms ((i, j), v), distinct in (i, j), over den != 0 in
        stored form."""
        items = sorted([t for t in items if t[1]])
        g = _divisor(den, [v for _, v in items])
        return BiPoly(den // g,
                      tuple(items if g == 1 else [(k, v // g) for k, v in items]))

    @staticmethod
    def make(mapping: dict) -> "BiPoly":
        """From a dict (i, j) -> rational c; zero terms are dropped."""
        cs = [(k, _rational(c)) for k, c in mapping.items()]
        den = lcm(*[c.denominator for _, c in cs])
        return BiPoly.over(den, [(k, c.numerator * (den // c.denominator))
                                 for k, c in cs])

    @staticmethod
    def const(c) -> "BiPoly":
        return BiPoly.make({(0, 0): c})

    @staticmethod
    def var_x() -> "BiPoly":
        return BiPoly(1, (((1, 0), 1),))

    @staticmethod
    def var_y() -> "BiPoly":
        return BiPoly(1, (((0, 1), 1),))

    @staticmethod
    def from_uni(p: UniPoly, var: str) -> "BiPoly":
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        return BiPoly(p.den, tuple([((i, 0) if var == "x" else (0, i), v)
                                    for i, v in enumerate(p.ints) if v]))

    @property
    def terms(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """The terms ((i, j), c), c a Fraction, built per call."""
        return tuple([(k, Q(v, self.den)) for k, v in self.iterms])

    @property
    def is_zero(self) -> bool:
        return not self.iterms

    @property
    def deg_x(self) -> int:
        """The x-degree of the last term, the terms being sorted by (i, j)."""
        return self.iterms[-1][0][0] if self.iterms else -1

    @property
    def deg_y(self) -> int:
        return max((k[1] for k, _ in self.iterms), default=-1)

    def _combine(self, other: "BiPoly", sign: int) -> "BiPoly":
        """self + sign * other, over the lcm of the denominators."""
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, sign * (den // other.den)
        d = {k: v * ma for k, v in self.iterms}
        for k, v in other.iterms:
            d[k] = d.get(k, 0) + v * mb
        return BiPoly.over(den, list(d.items()))

    def __add__(self, other: "BiPoly") -> "BiPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "BiPoly":
        return BiPoly(self.den, tuple([(k, -v) for k, v in self.iterms]))

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        d: dict[tuple[int, int], int] = {}
        for (i1, j1), x in self.iterms:
            for (i2, j2), y in other.iterms:
                k = (i1 + i2, j1 + j2)
                d[k] = d.get(k, 0) + x * y
        return BiPoly.over(self.den * other.den, list(d.items()))

    def scale(self, c) -> "BiPoly":
        c = _rational(c)
        return BiPoly.over(self.den * c.denominator,
                           [(k, v * c.numerator) for k, v in self.iterms])

    def __pow__(self, n: int) -> "BiPoly":
        return _power(self, n, BiPoly.__mul__) if n else BiPoly(1, (((0, 0), 1),))

    def int_columns(self) -> tuple[int, list[list[int]]]:
        """(den, cols): cols[j][i] is the integer coefficient of x^i * y^j
        ([] for g = 0), so g = cols / den."""
        cols = [[0] * (self.deg_x + 1) for _ in range(self.deg_y + 1)]
        for (i, j), v in self.iterms:
            cols[j][i] = v
        return self.den, cols

    def evaluate(self, a, b) -> Fraction:
        """g(a, b), by Horner's rule on the integer grid (`grid_value`),
        building one Fraction."""
        if not self.iterms:
            return Q(0)
        a, b = _rational(a), _rational(b)
        return Q(grid_value(self.int_columns()[1], a, b),
                 self.den * a.denominator ** self.deg_x * b.denominator ** self.deg_y)

    def y_coefficients(self) -> list[UniPoly]:
        """Coefficients of y^0 .. y^deg_y, each a polynomial in x."""
        den, cols = self.int_columns()
        return [UniPoly.over(den, col) for col in cols]

    def eval_y_ratfunc(self, num: UniPoly, den: UniPoly) -> UniPoly:
        """den^deg_y * g(x, num/den), a polynomial in x, for den != 0: the
        value of the integer grid (`grid_at_y`) over self.den."""
        h = grid_at_y(self.int_columns()[1], num, den)
        return UniPoly.over(h.den * self.den, h.ints)

    def swap_xy(self) -> "BiPoly":
        """g(y, x): the same polynomial with x and y exchanged."""
        return BiPoly.over(self.den, [((j, i), v) for (i, j), v in self.iterms])

    def partial_x(self) -> "BiPoly":
        return BiPoly.over(self.den, [((i - 1, j), v * i)
                                      for (i, j), v in self.iterms if i])

    def partial_y(self) -> "BiPoly":
        return BiPoly.over(self.den, [((i, j - 1), v * j)
                                      for (i, j), v in self.iterms if j])

    def substitute(self, xv: "BiPoly", yv: "BiPoly") -> "BiPoly":
        """g(xv, yv) where xv, yv are polynomials in fresh variables."""
        acc = BiPoly(1, ())
        for (i, j), v in self.iterms:
            acc = acc + (xv**i * yv**j).scale(v)
        return BiPoly.over(acc.den * self.den, acc.iterms)

    def primitive_int(self) -> tuple[Fraction, "BiPoly"]:
        """content * primitive with integer coefficients; the leading
        coefficient in (x, y) lexicographic order is positive."""
        if self.is_zero:
            return Q(0), self
        g = _divisor(self.iterms[-1][1], [v for _, v in self.iterms])
        if g == 1 and self.den == 1:
            return Q(1), self
        return Q(g, self.den), BiPoly(1, tuple([(k, v // g) for k, v in self.iterms]))

    def __str__(self) -> str:
        return bipoly_str(self)


def bipoly_str(p: BiPoly) -> str:
    """Canonical text form, terms in decreasing (x, y) order."""
    return sum_str([(c, "*".join([_power_str(v, k)
                                  for v, k in (("x", i), ("y", j)) if k]))
                    for (i, j), c in reversed(p.iterms if p.den == 1 else p.terms)])


def bipoly_content(g: BiPoly, var: str) -> tuple[UniPoly, BiPoly]:
    """(c, g / c) for nonzero g: c the content of g in Q[var], the monic gcd
    of its coefficients as a polynomial in the other variable, from one
    `_zgcd` chain over their integers, shortest first, that stops at 1; g / c
    from the exact quotients of those integer coefficient lists."""
    if (g.deg_x if var == "x" else g.deg_y) < 1:  # constant coefficients
        return UniPoly(1, (1,)), g
    cols: dict[int, list[int]] = {}
    for (i, j), v in g.iterms:  # sorted by (i, j): each list ends nonzero
        k, e = (j, i) if var == "x" else (i, j)
        col = cols.setdefault(k, [])
        col += [0] * (e - len(col))
        col.append(v)
    content: list[int] = []
    for col in sorted(cols.values(), key=len):
        content = _zgcd(content, col) if content else _zprim(col)
        if len(content) == 1:
            return UniPoly(1, (1,)), g
    lc = content[-1]
    return UniPoly.over(lc, content), BiPoly.over(g.den, [
        ((e, k) if var == "x" else (k, e), v * lc) for k, col in cols.items()
        for e, v in enumerate(_zexact(col, content)) if v])


def bipoly_exact_div(g: BiPoly, h: BiPoly) -> BiPoly | None:
    """g / h in Q[x, y] if h divides g exactly, else None: long division in
    y, each quotient column one exact division by lc_y(h)."""
    hc = h.y_coefficients()
    dh = len(hc) - 1
    rem = g.y_coefficients()
    out: list[tuple[int, UniPoly]] = []
    for k in range(len(rem) - 1 - dh, -1, -1):
        col, r = rem[k + dh].divmod(hc[-1])
        if not r.is_zero:
            return None
        for j in range(dh):
            rem[k + j] = rem[k + j] - col * hc[j]
        out.append((k, col))
    if any(not r.is_zero for r in rem[:dh]):
        return None
    den = lcm(*[col.den for _, col in out])
    return BiPoly.over(den, [((i, k), v * (den // col.den))
                             for k, col in out for i, v in enumerate(col.ints)])
