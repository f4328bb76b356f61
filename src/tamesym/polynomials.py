"""Exact univariate and bivariate polynomial arithmetic over Q.

Everything here is stdlib-only and exact: coefficients are fractions.Fraction,
and no operation ever rounds. The univariate kernels work on integer images,
a polynomial scaled by the lcm of its denominators (and divided by its
content where that helps): `_zdivmod`, `_zgcd` and `_zyun` under
`UniPoly.divmod`, `gcd_uni` and `squarefree_decomposition`.

Factoring runs on one integer image: `factor_uni` keeps integer lists from
the primitive image of f through its squarefree parts (Yun) to
`_squarefree_factors`, and builds Fractions only for the monic factors it
returns; `rational_roots` are its factors of degree 1. Rational roots come
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
from .modular import equal_degree_split, factor_degree_pattern, hensel_lift, mod_mul

Q = Fraction
ZERO = Q(0)   # the shared default of dict probes; Fractions are immutable


def cached_hash(self) -> int:
    """__hash__ of a frozen value type with one field, named first in its
    __slots__: the dataclass hash, hash((field,)), computed once and kept in
    the `_hash` slot, so no set or dict of these values changes its
    iteration order."""
    try:
        return self._hash
    except AttributeError:
        h = hash((getattr(self, type(self).__slots__[0]),))
        object.__setattr__(self, "_hash", h)
        return h


def field_state(self):
    """__getstate__ of such a type for copy and pickle: the field alone."""
    return getattr(self, type(self).__slots__[0])


def set_field_state(self, state) -> None:
    """__setstate__ of such a type; the frozen __setattr__ would refuse."""
    object.__setattr__(self, type(self).__slots__[0], state)


def _as_fraction(v) -> Fraction:
    if type(v) is Fraction:  # isinstance(int, Fraction) runs ABCMeta.__instancecheck__
        return v
    if type(v) is int:
        return Fraction(v)
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected a rational number, got {type(v).__name__}")


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial with Fraction coefficients, ascending order.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs", "_hash")
    coeffs: tuple[Fraction, ...]

    __hash__ = cached_hash
    __getstate__ = field_state
    __setstate__ = set_field_state

    @staticmethod
    def make(seq) -> "UniPoly":
        cs = [_as_fraction(c) for c in seq]
        while cs and cs[-1] == 0:
            cs.pop()
        return UniPoly(tuple(cs))

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly.make([c])

    @staticmethod
    def var() -> "UniPoly":
        return UniPoly.make([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.make([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.make([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly(())
        da, a = _int_image(self.coeffs)
        db, b = _int_image(other.coeffs)
        den = da * db
        return UniPoly(tuple([Q(v, den) for v in _zmul(a, b)]))

    def scale(self, c) -> "UniPoly":
        c = _as_fraction(c)
        if c == 0:
            return UniPoly(())
        return UniPoly(tuple(c * a for a in self.coeffs))

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n) if n else UniPoly.const(1)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return UniPoly(()), self
        da, a = _int_image(self.coeffs)
        g, db, b = _primitive(other.coeffs)
        # d*da*self = quot*b + rem and other = (g/db)*b
        d, quot, rem = _zdivmod(a, b)
        qden, rden = d * da * g, d * da
        return (UniPoly(tuple([Q(q * db, qden) for q in quot])),
                UniPoly(tuple([Q(r, rden) for r in rem])))

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("polynomial division was not exact")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def evaluate(self, x) -> Fraction:
        """f(x), by Horner's rule on the integer image."""
        if not self.coeffs:
            return Q(0)
        x = _as_fraction(x)
        den, ints = _int_image(self.coeffs)
        return Q(_homogeneous_value(ints, x.numerator, x.denominator),
                 den * x.denominator ** self.degree)

    def key(self) -> tuple:
        return (self.degree, self.coeffs)

    def __str__(self) -> str:
        return poly_str(self, "t")


def _power(base, n: int):
    """base^n for n >= 1, from the top bit of n down: one squaring per
    further bit and one product with base per further 1 bit."""
    result = base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


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


def poly_str(p: UniPoly, var: str) -> str:
    """Canonical text form, highest degree first, explicit '*' and '^'."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if c == 0:
            continue
        if i == 0:
            body = num_str(abs(c))
        else:
            mag = abs(c)
            head = "" if mag == 1 else f"{num_str(mag)}*"
            if i == 1:
                body = f"{head}{var}"
            else:
                body = f"{head}{var}^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts)


# -- integer images ----------------------------------------------------------

# Tuples here are built from lists, never from generators: CPython sizes a
# tuple from a generator at 10 and then shrinks it, which drains one free
# list into the others and raised peak memory of factoring by about 1 MB.
# `wedges.expand_products` keeps the rule: with its result tuples built from
# generators, a 4-round `suite` benchmark run peaked 0.46-0.77 MB above the
# Fraction loops it replaced, against 0.1 MB when built from lists.


def _int_image(coeffs) -> tuple[int, list[int]]:
    """(den, ints): den is the lcm of the denominators, ints = den * coeffs."""
    den = lcm(*[c.denominator for c in coeffs])
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _zmul(a: list[int], b: list[int]) -> list[int]:
    """Product of integer coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _primitive(coeffs) -> tuple[int, int, list[int]]:
    """(g, den, ints) with coeffs = (g/den) * ints, where ints is primitive
    with a positive leading coefficient. coeffs must not be all zero."""
    den, ints = _int_image(coeffs)
    prim = _zprim(ints)
    return ints[-1] // prim[-1], den, prim


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


def _monic(ints) -> UniPoly:
    """The monic UniPoly of integer coefficients ([] stays 0)."""
    return UniPoly(tuple([Q(v, ints[-1]) for v in ints]))


def _zprim(ints: list[int]) -> list[int]:
    """ints divided by their content, with a positive leading coefficient."""
    g = int_gcd(*ints)
    if ints and ints[-1] < 0:
        g = -g
    return ints if g in (0, 1) else [v // g for v in ints]


def _zexact(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials that b divides over Z; raises otherwise
    (not by an assert, which python -O drops)."""
    d, quot, rem = _zdivmod(a, b)
    if d != 1 or rem:
        raise ValueError("polynomial division was not exact")
    return quot


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of integer polynomials, primitive with a positive leading
    coefficient ([] when both are 0). A primitive remainder sequence: each
    pseudo-remainder is divided by its content (Knuth, TAOCP vol. 2, 4.6.1)."""
    a, b = _zprim(a), _zprim(b)
    while len(b) > 1:
        rem = _zdivmod(a, b)[2]
        if not rem:
            return b
        a, b = b, _zprim(rem)
    return [1] if b else a


def gcd_uni(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor."""
    if len(f.coeffs) == 1 or len(g.coeffs) == 1:
        return _monic([1])  # a nonzero constant is a unit
    return _monic(_zgcd(_int_image(f.coeffs)[1], _int_image(g.coeffs)[1]))


def multiplicity_at(f: UniPoly, root) -> int:
    """Order of vanishing of f at a rational point."""
    return multiplicity_of_factor(f, UniPoly.make([-_as_fraction(root), 1]))


def multiplicity_of_factor(f: UniPoly, q: UniPoly) -> int:
    """Order of the (irreducible) factor q in f."""
    if f.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    k = 0
    while True:
        quo, rem = f.divmod(q)
        if not rem.is_zero:
            return k
        f = quo
        k += 1


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
    Gathen & Gerhard, Modern Computer Algebra, 14.6). Every divisor is
    primitive, so every quotient is integral (Gauss's lemma)."""
    c = [i * v for i, v in enumerate(f)][1:]
    a = _zgcd(f, c)
    b, c = _zexact(f, a), _zexact(c, a)
    out, i = [], 1
    while len(b) > 1:
        d = [x - k * y for k, (x, y) in enumerate(zip_longest(c, b[1:], fillvalue=0), 1)]
        while d and not d[-1]:
            d.pop()
        a = _zgcd(b, d)
        if len(a) > 1:
            out.append((a, i))
            b, d = _zexact(b, a), _zexact(d, a)
        c, i = d, i + 1
    return out


def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """f = lc * prod(a_i^i) with the a_i squarefree, monic, pairwise coprime.
    Returns the nontrivial (a_i, i) pairs."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no squarefree decomposition")
    return [(_monic(a), i) for a, i in _zyun(_primitive(f.coeffs)[2])]


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
                           f"{poly_str(_monic(ints), 't')}: no usable odd prime")
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
                                   f"{poly_str(_monic(whole), 't')}: over "
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
            _, quot, rem = _zdivmod(ints, g)
            if not rem:
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
    for part, power in _zyun(_primitive(f.coeffs)[2]):
        out += [(_monic(g), power) for g in _squarefree_factors(part)]
    out.sort(key=lambda t: t[0].key())
    return c, out


def rational_roots(f: UniPoly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, sorted ascending: the degree-1
    factors of `factor_uni(f)`, found without splitting the others."""
    if f.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    return sorted([(Q(-g[0], g[1]), k) for part, k in _zyun(_primitive(f.coeffs)[2])
                   for g in _squarefree_factors(part, linear_only=True) if len(g) == 2])


# ---------------------------------------------------------------------------
# bivariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiPoly:
    """Polynomial in x and y; sparse map (x_exp, y_exp) -> Fraction."""

    __slots__ = ("terms", "_hash")
    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    __hash__ = cached_hash
    __getstate__ = field_state
    __setstate__ = set_field_state

    @staticmethod
    def make(mapping) -> "BiPoly":
        items = []
        for (i, j), c in (mapping.items() if isinstance(mapping, dict) else mapping):
            c = _as_fraction(c)
            if c != 0:
                items.append(((i, j), c))
        merged: dict[tuple[int, int], Fraction] = {}
        for key, c in items:
            merged[key] = merged.get(key, ZERO) + c
        return BiPoly(tuple(sorted((k, v) for k, v in merged.items() if v != 0)))

    @staticmethod
    def const(c) -> "BiPoly":
        return BiPoly.make({(0, 0): c})

    @staticmethod
    def var_x() -> "BiPoly":
        return BiPoly.make({(1, 0): 1})

    @staticmethod
    def var_y() -> "BiPoly":
        return BiPoly.make({(0, 1): 1})

    @staticmethod
    def from_uni(p: UniPoly, var: str) -> "BiPoly":
        if var == "x":
            return BiPoly.make({(i, 0): c for i, c in enumerate(p.coeffs)})
        if var == "y":
            return BiPoly.make({(0, i): c for i, c in enumerate(p.coeffs)})
        raise ValueError(f"unknown variable {var!r}")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def deg_x(self) -> int:
        return max((k[0] for k, _ in self.terms), default=-1)

    @property
    def deg_y(self) -> int:
        return max((k[1] for k, _ in self.terms), default=-1)

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        d = self.as_dict()
        for k, c in other.terms:
            d[k] = d.get(k, ZERO) + c
        return BiPoly.make(d)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return BiPoly(tuple((k, -c) for k, c in self.terms))

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        """On integer images, as `UniPoly.__mul__`: one Fraction per term."""
        da, a = _int_image([c for _, c in self.terms])
        db, b = _int_image([c for _, c in other.terms])
        d: dict[tuple[int, int], int] = {}
        for ((i1, j1), _), x in zip(self.terms, a):
            for ((i2, j2), _), y in zip(other.terms, b):
                k = (i1 + i2, j1 + j2)
                d[k] = d.get(k, 0) + x * y
        den = da * db
        return BiPoly(tuple(sorted([(k, Q(v, den)) for k, v in d.items() if v])))

    def scale(self, c) -> "BiPoly":
        c = _as_fraction(c)
        if c == 0:
            return BiPoly(())
        return BiPoly(tuple((k, c * v) for k, v in self.terms))

    def __pow__(self, n: int) -> "BiPoly":
        return _power(self, n) if n else BiPoly.const(1)

    def evaluate(self, a, b) -> Fraction:
        a, b = _as_fraction(a), _as_fraction(b)
        return sum((c * a**i * b**j for (i, j), c in self.terms), Q(0))

    def subst_y(self, b) -> UniPoly:
        """g(x, b) as a polynomial in x."""
        b = _as_fraction(b)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.terms:
            out[i] = out.get(i, ZERO) + c * b**j
        n = max(out, default=-1)
        return UniPoly.make([out.get(k, ZERO) for k in range(n + 1)])

    def y_coefficients(self) -> list[UniPoly]:
        """Coefficients of y^0 .. y^deg_y, each a polynomial in x."""
        cols: dict[int, dict[int, Fraction]] = {}
        for (i, j), c in self.terms:
            cols.setdefault(j, {})[i] = c
        out = []
        for j in range(self.deg_y + 1):
            col = cols.get(j, {})
            n = max(col, default=-1)
            out.append(UniPoly.make([col.get(k, ZERO) for k in range(n + 1)]))
        return out

    def eval_y_ratfunc(self, num: UniPoly, den: UniPoly) -> UniPoly:
        """den^deg_y * g(x, num/den), a polynomial in x, for den != 0.

        By Horner's rule in y on integer images n = dn*num and d = dd*den:
        the sum of c_j * (dd*n)^j * (dn*d)^(deg_y-j) over (dn*dd)^deg_y."""
        if self.is_zero:
            return UniPoly(())
        dn, n = _int_image(num.coeffs)
        dd, d = _int_image(den.coeffs)
        dc, ints = _int_image([c for _, c in self.terms])
        dy = self.deg_y
        cols = [[0] * (self.deg_x + 1) for _ in range(dy + 1)]
        for ((i, j), _), v in zip(self.terms, ints):
            cols[j][i] = v
        n, d = [v * dd for v in n], [v * dn for v in d]
        acc, dpow = cols[dy], [1]
        for col in reversed(cols[:dy]):
            dpow = _zmul(dpow, d)
            acc = [u + v for u, v in zip_longest(_zmul(acc, n), _zmul(col, dpow),
                                                 fillvalue=0)]
        den_all = dc * (dn * dd) ** dy
        return UniPoly.make([Q(v, den_all) for v in acc])

    def swap_xy(self) -> "BiPoly":
        """g(y, x): the same polynomial with x and y exchanged."""
        return BiPoly.make({(j, i): c for (i, j), c in self.terms})

    def invert_x(self) -> "BiPoly":
        """u^deg_x * g(1/u, y): the closure's equation in the 1/x chart."""
        dx = self.deg_x
        return BiPoly.make({(dx - i, j): c for (i, j), c in self.terms})

    def invert_y(self) -> "BiPoly":
        dy = self.deg_y
        return BiPoly.make({(i, dy - j): c for (i, j), c in self.terms})

    def partial_x(self) -> "BiPoly":
        return BiPoly.make({(i - 1, j): c * i for (i, j), c in self.terms if i})

    def partial_y(self) -> "BiPoly":
        return BiPoly.make({(i, j - 1): c * j for (i, j), c in self.terms if j})

    def substitute(self, xv: "BiPoly", yv: "BiPoly") -> "BiPoly":
        """g(xv, yv) where xv, yv are polynomials in fresh variables."""
        acc = BiPoly(())
        for (i, j), c in self.terms:
            acc = acc + (xv**i * yv**j).scale(c)
        return acc

    def primitive_int(self) -> tuple[Fraction, "BiPoly"]:
        """content * primitive with integer coefficients; the leading
        coefficient in (x, y) lexicographic order is positive."""
        if self.is_zero:
            return Q(0), self
        g, den, ints = _primitive([c for _, c in self.terms])
        return Q(g, den), BiPoly.make(zip([k for k, _ in self.terms], ints))

    def __str__(self) -> str:
        return bipoly_str(self)


def bipoly_str(p: BiPoly, xname: str = "x", yname: str = "y") -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for (i, j), c in sorted(p.terms, reverse=True):
        pieces = []
        mag = abs(c)
        if i:
            pieces.append(xname if i == 1 else f"{xname}^{i}")
        if j:
            pieces.append(yname if j == 1 else f"{yname}^{j}")
        if not pieces or mag != 1:
            pieces.insert(0, num_str(mag))
        body = "*".join(pieces)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts)


def bipoly_exact_div(g: BiPoly, h: BiPoly) -> BiPoly | None:
    """g / h in Q[x, y] if h divides g exactly, else None: long division in
    y, each quotient column one exact division by lc_y(h)."""
    hc = h.y_coefficients()
    dh = len(hc) - 1
    rem = g.y_coefficients()
    out: dict[tuple[int, int], Fraction] = {}
    for k in range(len(rem) - 1 - dh, -1, -1):
        col, r = rem[k + dh].divmod(hc[-1])
        if not r.is_zero:
            return None
        for j in range(dh):
            rem[k + j] = rem[k + j] - col * hc[j]
        out.update(((i, k), c) for i, c in enumerate(col.coeffs))
    if any(not r.is_zero for r in rem[:dh]):
        return None
    return BiPoly.make(out)
