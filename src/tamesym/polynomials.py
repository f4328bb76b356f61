"""Exact univariate and bivariate polynomial arithmetic over Q.

Everything here is stdlib-only and exact: coefficients are fractions.Fraction,
and no operation ever rounds. `factor_uni` takes the squarefree parts (Yun)
and their rational roots, and hands each rootless leftover to
`_rootless_factors`: degrees 2-3 are irreducible outright, factor-degree
patterns modulo small primes certify most others (Knuth, TAOCP vol. 2,
4.6.2), and the rest are split modulo a prime, Hensel-lifted and recombined
(Zassenhaus). `irreducible_check_uni` asks `factor_uni`. Both certify an
answer or raise Inconclusive; they never guess, and the answer depends on
the polynomial alone.

The univariate kernels that dominate factoring work on integer images: a
polynomial is scaled by the lcm of its denominators (and divided by its
content where that helps) to integer coefficients. `UniPoly.divmod` is one
integer pseudo-division (`_zdivmod`), `gcd_uni` a primitive remainder
sequence of such divisions, and `rational_roots` tests each candidate p/q
that passes the divisibility tests at t = 1 and t = -1 by the homogeneous
integer value sum(a_i * p^i * q^(n-i)) and divides found roots out over Z.
Fractions are built only for the results, so every UniPoly still holds a
tuple of Fractions.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, count, zip_longest
from math import gcd as int_gcd
from math import lcm, prod

from .errors import Inconclusive, TooManyDigits
from .integers import divisors

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
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        den = da * db
        return UniPoly(tuple([Q(v, den) for v in out]))

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

    def derivative(self) -> "UniPoly":
        return UniPoly.make([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def primitive_int(self) -> tuple[Fraction, tuple[int, ...]]:
        """Write p = content * q with q integer-coefficient, primitive,
        positive leading coefficient. Returns (content, coeffs of q)."""
        if self.is_zero:
            return Q(0), ()
        g, den, ints = _primitive(self.coeffs)
        return Q(g, den), tuple(ints)

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


def _primitive(coeffs) -> tuple[int, int, list[int]]:
    """(g, den, ints) with coeffs = (g/den) * ints, where ints is primitive
    with a positive leading coefficient. coeffs must not be all zero."""
    den, ints = _int_image(coeffs)
    g = int_gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
    return g, den, ints


def _zdivmod(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """Integer pseudo-division of a by b, with len(a) >= len(b) and b[-1] != 0.

    Returns (d, quot, rem) with d*a = quot*b + rem, deg rem < deg b and no
    trailing zeros in rem. d divides lc(b)^(deg a - deg b + 1), the
    multiplier of classic pseudo-division: a step scales the remainder and
    the quotient so far only by the part of lc(b) that the current leading
    coefficient lacks, so d = 1 whenever the quotient has integer
    coefficients, which includes every division by a monic b.
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


def gcd_uni(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor.

    A primitive remainder sequence on integer images: each pseudo-remainder
    is divided by its content (Knuth, TAOCP vol. 2, 4.6.1)."""
    if f.degree == 0 or g.degree == 0:
        return UniPoly.const(1)  # a nonzero constant is a unit
    if f.is_zero or g.is_zero:
        return (g if f.is_zero else f).monic()
    a, b = _primitive(f.coeffs)[2], _primitive(g.coeffs)[2]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = _zdivmod(a, b)[2]
        if not rem:
            break
        c = int_gcd(*rem)
        a, b = b, [v // c for v in rem]
    return UniPoly(tuple([Q(v, b[-1]) for v in b]))


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


def rational_roots(f: UniPoly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, sorted ascending.

    A root p/q in lowest terms has p | a_0 and q | a_n, and q - p | f(1) and
    q + p | f(-1) on the integer image. Each candidate that passes is tested
    by the integer q^n * f(p/q), and each root found is divided out of the
    integer image as the primitive factor q*t - p, which leaves integer
    coefficients (Gauss's lemma)."""
    if f.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    if f.degree == 0:
        return []
    ints = _primitive(f.coeffs)[2]
    # strip powers of t first
    low = 0
    while ints[low] == 0:
        low += 1
    out: list[tuple[Fraction, int]] = []
    if low:
        out.append((Q(0), low))
        ints = ints[low:]
    if len(ints) > 1:
        dens = divisors(ints[-1])
        f1, fm = sum(ints), _alternating_sum(ints)
        for p in divisors(ints[0]):
            # a root +-p/q makes q*t -+ p a factor over Z: q -+ p divides
            # f(1) and q +- p divides f(-1), so |q - p| <= one of their sizes
            # a <= b and q + p <= the other, which puts q in the slice below
            a, b = sorted((abs(f1) or dens[-1] + p, abs(fm) or dens[-1] + p))
            for q in dens[bisect_left(dens, p - a):bisect_right(dens, min(p + a, b - p))]:
                if int_gcd(p, q) != 1:
                    continue
                for num in (p, -p):
                    d1, dm = q - num, q + num   # 0 divides only 0
                    if (f1 % d1 if d1 else f1) or (fm % dm if dm else fm):
                        continue
                    k = 0
                    while len(ints) > 1 and _homogeneous_value(ints, num, q) == 0:
                        ints = _zdivmod(ints, [-num, q])[1]
                        k += 1
                    if k:
                        out.append((Q(num, q), k))
                        f1, fm = sum(ints), _alternating_sum(ints)
    out.sort(key=lambda t: t[0])
    return out


def _alternating_sum(ints: list[int]) -> int:
    """f(-1) for f with integer coefficients ints."""
    return sum(ints[::2]) - sum(ints[1::2])


def _homogeneous_value(ints: list[int], p: int, q: int) -> int:
    """q^n * f(p/q) for f with integer coefficients ints, n = deg f."""
    acc = ints[-1]
    qk = 1
    for c in reversed(ints[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc


def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: f = lc * prod(a_i^i) with the a_i squarefree, monic,
    pairwise coprime. Returns the nontrivial (a_i, i) pairs."""
    f = f.monic()
    out: list[tuple[UniPoly, int]] = []
    df = f.derivative()
    a = gcd_uni(f, df)
    b = f.exact_div(a)
    c = df.exact_div(a)
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        a_i = gcd_uni(b, d)
        if a_i.degree > 0:
            out.append((a_i.monic(), i))
        b = b.exact_div(a_i)
        c = d.exact_div(a_i)
        i += 1
    return out


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


def _mod_trim(cs: list[int], p: int) -> list[int]:
    cs = [c % p for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _mod_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _mod_trim(out, p)


def _mod_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quot, rem) of a by b over F_p, both without trailing zeros."""
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while len(rem) >= len(b):
        if rem[-1] == 0:
            rem.pop()
            continue
        coef = rem[-1] * inv % p
        shift = len(rem) - len(b)
        quot[shift] = coef
        for j, y in enumerate(b):
            rem[shift + j] = (rem[shift + j] - coef * y) % p
        while rem and rem[-1] == 0:
            rem.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return quot, rem


def _mod_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _mod_pow(h: list[int], q: int, f: list[int], p: int) -> list[int]:
    """h^q mod f over F_p by square and multiply."""
    result = [1]
    base = _mod_divmod(h, f, p)[1]
    while q:
        if q & 1:
            result = _mod_divmod(_mod_mul(result, base, p), f, p)[1]
        base = _mod_divmod(_mod_mul(base, base, p), f, p)[1]
        q >>= 1
    return result


def _factor_degree_pattern(ints: list[int], p: int) -> list[tuple[list[int], int]] | None:
    """Distinct-degree pieces (g, d) of f mod p: g is monic, the product of
    the monic irreducible factors of degree d of f mod p. None if p is a bad
    prime (leading coefficient vanishes or f mod p not squarefree).

    Distinct-degree factoring: the product of the irreducible factors of
    degree d divides x^(p^d) - x (Knuth, TAOCP vol. 2, 4.6.2)."""
    f = _mod_trim(list(ints), p)
    if len(f) != len(ints):
        return None
    deriv = _mod_trim([i * c % p for i, c in enumerate(f)][1:], p)
    if not deriv or len(_mod_gcd(f, deriv, p)) != 1:
        return None
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    pieces: list[tuple[list[int], int]] = []
    d = 0
    h = _mod_divmod([0, 1], f, p)[1]  # x^(p^d) mod f
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            pieces.append((f, len(f) - 1))
            break
        h = _mod_pow(h, p, f, p)
        g = _mod_gcd(f, _mod_sub(h, [0, 1], p), p)
        if len(g) > 1:
            pieces.append((g, d))
            f = _mod_divmod(f, g, p)[0]
            h = _mod_divmod(h, f, p)[1]
    return pieces


def _subset_sums(degrees: list[int]) -> set[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def _mod_sub(a: list[int], b: list[int], p: int, c: int = 1) -> list[int]:
    """a - c*b modulo p, without trailing zeros."""
    return _mod_trim([x - c * y for x, y in zip_longest(a, b, fillvalue=0)], p)


def _equal_degree_split(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors over F_p, p odd, of a monic squarefree g
    whose factors all have degree d (Cantor-Zassenhaus): for a random a,
    gcd(g, a^((p^d-1)/2) - 1) is a proper factor about half the time."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _mod_trim([rng.randrange(p) for _ in range(len(g) - 1)], p)
        h = _mod_gcd(g, _mod_sub(_mod_pow(a, (p**d - 1) // 2, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return (_equal_degree_split(h, d, p, rng)
                    + _equal_degree_split(_mod_divmod(g, h, p)[0], d, p, rng))


def _hensel_lift(f: list[int], u: list[int], p: int, m: int) -> list[int]:
    """The monic factor of the monic f modulo m = p^k that is the irreducible
    u modulo p, lifted one p-adic digit a step against its cofactor v: with
    w*v = 1 mod u and e = (f - u*v)/q mod p, u += q*(w*e mod u) and
    v += q*(the exact quotient of e - v*(w*e mod u) by u) keep f = u*v
    modulo q*p."""
    v = _mod_divmod(_mod_trim(f, p), u, p)[0]
    w = _mod_pow(v, p ** (len(u) - 1) - 2, u, p)  # F_p[t]/(u) is a field
    q = p
    while q < m:
        e = [c // q for c in _mod_sub(f, _mod_mul(u, v, m), m)]
        du = _mod_divmod(_mod_mul(w, e, p), u, p)[1]
        dv = _mod_divmod(_mod_sub(e, _mod_mul(v, du, p), p), u, p)[0]
        u, v, q = _mod_sub(u, du, m, -q), _mod_sub(v, dv, m, -q), q * p
    return u


# recombination subsets tried before a polynomial is refused
_SUBSET_BUDGET = 2**14


def _rootless_factors(part: UniPoly) -> list[UniPoly]:
    """Monic irreducible factors of a squarefree polynomial of degree >= 2
    with no rational root, so with no factor of degree 1 or n - 1.

    Degrees 2 and 3 are irreducible outright. Otherwise the factor-degree
    patterns modulo up to 25 usable primes bound the degrees a factor can
    have, which certifies most irreducibles outright. If a proper degree
    stays feasible, the factors modulo the odd prime with the fewest of them
    are Hensel-lifted past twice lc * (Landau-Mignotte bound) and recombined
    in subsets of increasing size, each kept only if it divides exactly
    (Zassenhaus; von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15).
    Past _SUBSET_BUDGET subsets Inconclusive is raised rather than guessing.
    """
    n = part.degree
    if n <= 3:
        return [part.monic()]
    ints = _primitive(part.coeffs)[2]
    feasible = set(range(2, n - 1))
    best = None
    used = 0
    for p in _PRIME_POOL:
        pieces = _factor_degree_pattern(ints, p)
        if pieces is None:
            continue
        degrees = [d for g, d in pieces for _ in range((len(g) - 1) // d)]
        feasible &= _subset_sums(degrees)
        if not feasible:
            return [part.monic()]
        if p > 2 and (best is None or len(degrees) < best[0]):
            best = len(degrees), p, pieces
        used += 1
        if used >= 25:
            break
    if best is None:
        raise Inconclusive(f"cannot factor degree-{n} polynomial "
                           f"{poly_str(part, 't')}: no usable odd prime")
    _, p, pieces = best
    bound = 2 * ints[-1] * 2**n * sum(map(abs, ints))  # 2 * lc * Landau-Mignotte
    m = p
    while m <= bound:
        m *= p
    monic = [c * pow(ints[-1], -1, m) % m for c in ints]
    lifted = [_hensel_lift(monic, u, p, m) for g, d in pieces
              for u in _equal_degree_split(g, d, p, random.Random(f"{p} {g}"))]
    found, tried, size = [], 0, 1
    while 2 * size <= len(lifted):
        for pick in combinations(lifted, size):
            tried += 1
            if tried > _SUBSET_BUDGET:
                raise Inconclusive(f"cannot factor degree-{n} polynomial "
                                   f"{poly_str(part, 't')}: over "
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
                g = _mod_mul(g, u, m)
            g = [c - m if 2 * c > m else c for c in g]
            g = [c // int_gcd(*g) for c in g]
            _, quot, rem = _zdivmod(ints, g)
            if not rem:
                found.append(g)
                ints, lifted = quot, [u for u in lifted if u not in pick]
                break
        else:
            size += 1
    return [UniPoly(tuple([Q(c, g[-1]) for c in g])) for g in found + [ints]]


def irreducible_check_uni(f: UniPoly) -> bool:
    """Certified irreducibility over Q for nonconstant f: True exactly when
    `factor_uni` finds f to be its own single factor."""
    return f.degree == 1 or factor_uni(f)[1] == [(f.monic(), 1)]


def factor_uni(f: UniPoly) -> tuple[Fraction, list[tuple[UniPoly, int]]]:
    """Factor f into monic irreducibles: f = c * prod(q_i^e_i).

    Each squarefree part loses its rational roots, and `_rootless_factors`
    splits what is left. Raises Inconclusive when it cannot certify a split.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    c = f.leading
    # constants and linear polynomials are their own factorization
    if f.degree == 0:
        return c, []
    if f.degree == 1:
        return c, [(f.monic(), 1)]
    out: list[tuple[UniPoly, int]] = []
    for part, power in squarefree_decomposition(f):
        for root, _ in rational_roots(part):
            out.append((UniPoly.make([-root, 1]), power))
            part = part.exact_div(UniPoly.make([-root, 1]))
        if part.degree > 0:
            out += [(q, power) for q in _rootless_factors(part)]
    out.sort(key=lambda t: t[0].key())
    return c, out


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
        d: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms:
            for (i2, j2), c2 in other.terms:
                k = (i1 + i2, j1 + j2)
                d[k] = d.get(k, ZERO) + c1 * c2
        return BiPoly.make(d)

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

    def subst_x(self, a) -> UniPoly:
        """g(a, y) as a polynomial in y."""
        a = _as_fraction(a)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.terms:
            out[j] = out.get(j, ZERO) + c * a**i
        n = max(out, default=-1)
        return UniPoly.make([out.get(k, ZERO) for k in range(n + 1)])

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
        """den^deg_y * g(x, num/den), a polynomial in x."""
        dy = self.deg_y
        acc = UniPoly(())
        for j, cj in enumerate(self.y_coefficients()):
            acc = acc + cj * num**j * den ** (dy - j)
        return acc

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

    def key(self) -> tuple:
        return (self.deg_x, self.deg_y, self.terms)

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


def bipoly_pseudo_divmod(g: BiPoly, h: BiPoly) -> tuple[BiPoly, BiPoly, int]:
    """Pseudo-division in y: lc_y(h)^k * g = q*h + r with deg_y r < deg_y h."""
    dh = h.deg_y
    if dh < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    lc = BiPoly.from_uni(h.y_coefficients()[-1], "x")
    q = BiPoly(())
    r = g
    k = 0
    while r.deg_y >= dh and not r.is_zero:
        rc = BiPoly.from_uni(r.y_coefficients()[-1], "x")
        shift = BiPoly.make({(0, r.deg_y - dh): 1})
        q = q * lc + rc * shift
        r = r * lc - rc * shift * h
        k += 1
    return q, r, k


def bipoly_exact_div(g: BiPoly, h: BiPoly) -> BiPoly | None:
    """g / h in Q[x, y] if h divides g exactly (h nonconstant in y), else None."""
    q, r, k = bipoly_pseudo_divmod(g, h)
    if not r.is_zero:
        return None
    return bipoly_div_uni(q, h.y_coefficients()[-1] ** k)


def bipoly_div_uni(g: BiPoly, d: UniPoly) -> BiPoly | None:
    """g / d for d in Q[x], coefficientwise in y; None unless d divides
    every coefficient exactly."""
    out: dict[tuple[int, int], Fraction] = {}
    for j, col in enumerate(g.y_coefficients()):
        if col.is_zero:
            continue
        quo, rem = col.divmod(d)
        if not rem.is_zero:
            return None
        for i, c in enumerate(quo.coeffs):
            if c != 0:
                out[(i, j)] = c
    return BiPoly.make(out)
