"""Factoring positive integers, certified or refused within a fixed budget.

Trial division runs over d < PLAIN_TRIAL_BOUND; an input whose trial
division ends there (every cofactor below PLAIN_TRIAL_BOUND^2 is prime)
takes no other step. A larger cofactor, whose primes all exceed that bound,
is reduced to the root r of its highest perfect power r^k, and r is kept
whole when Miller-Rabin on the first 13 prime bases, which is exact below
MR_EXACT_BELOW (Sorenson & Webster 2015), calls it prime. Otherwise trial
division goes on up to TRIAL_BOUND. So an input whose prime factors other
than the largest are below TRIAL_BOUND, and whose largest is below
MR_EXACT_BELOW, is factored whatever its size, as plain trial division
factors it.

A cofactor left at TRIAL_BOUND is stripped of perfect powers again, and
Pollard-Brent rho (Brent 1980) splits it until Miller-Rabin certifies
every part prime. At or above MR_EXACT_BELOW a base-2 pass cannot certify,
so it raises Inconclusive naming the integer, and so does rho once it has
spent its step budget on one prime. Each prime gets its own budget,
RHO_STEPS divided by 1 + (bits // 256)^2 for the bits of what is left to
factor, as a step on it costs about the square of its size; the base-2 test
costs about one step per bit and is skipped when that exceeds what is left.
Every prime found removes at least 20 bits, so a cofactor of b bits costs
at most b/20 + 1 budgets. Exponents are taken by repeated squaring, so p^k
costs about 2*log2(k) divisions.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, log2, prod

from .errors import Inconclusive

PLAIN_TRIAL_BOUND = 1 << 16
TRIAL_BOUND = 1 << 20
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981
RHO_STEPS = 1 << 20
MAX_DIVISOR_BITS = 1 << 24   # divisor count times bit length, see divisors
_RHO_BATCH = 128   # rho steps between two gcds
_POWER_TESTS = 6   # residue tests before an exact k-th root is taken


def valuation(n: int, p: int) -> tuple[int, int]:
    """(e, n // p^e) for the largest e with p^e | n, by dividing by p, p^2,
    p^4, ... while that divides, then by the same powers back down."""
    e, bit, powers = 0, 1, []
    pk = p
    while n % pk == 0:
        n //= pk
        e += bit
        powers.append((pk, bit))
        pk *= pk
        bit *= 2
    for pk, bit in reversed(powers):
        if n % pk == 0:
            n //= pk
            e += bit
    return e, n


def factor_positive_int(n: int) -> dict[int, int]:
    """Prime factorisation {p: e} of n >= 1 with the primes ascending."""
    if n <= 0:
        raise ValueError("expected a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        if n % p == 0:
            out[p], n = valuation(n, p)
    d = 5
    while d * d <= n:
        if d >= PLAIN_TRIAL_BOUND:
            _factor_large(n, d, out)
            return dict(sorted(out.items()))
        for p in (d, d + 2):
            if n % p == 0:
                out[p], n = valuation(n, p)
        d += 6
    if n > 1:
        out[n] = 1
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of |n| ascending; [] for 0. Inconclusive is
    raised, naming n, before a list whose count times the bit length of n
    exceeds MAX_DIVISOR_BITS is built."""
    n = abs(n)
    if n == 0:
        return []
    primes = factor_positive_int(n)
    count = prod(e + 1 for e in primes.values())
    if count * n.bit_length() > MAX_DIVISOR_BITS:
        raise Inconclusive(
            f"cannot list the divisors of {_integer_text(n)}: {count} of "
            f"them, of up to {n.bit_length()} bits each, exceed the "
            f"{MAX_DIVISOR_BITS} bits allowed")
    divs = [1]
    for p, e in primes.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _factor_large(n: int, d: int, out: dict[int, int]) -> None:
    """Add the factors of n to `out`, given d^2 <= n, d = 5 (mod 6) and no
    prime below d dividing n."""
    n, k = _perfect_power(n, d)
    if n < MR_EXACT_BELOW and _strong_probable_prime(n, MR_BASES):
        out[n] = k
        return
    while d * d <= n:
        if d >= TRIAL_BOUND:
            _factor_by_rho(n, d, k, out)
            return
        for p in (d, d + 2):
            if n % p == 0:
                e, n = valuation(n, p)
                out[p] = e * k
        d += 6
    if n > 1:
        out[n] = k


def _factor_by_rho(n: int, d: int, k: int, out: dict[int, int]) -> None:
    """Add the factors of n^k to `out`, where no prime below d divides n."""
    n, j = _perfect_power(n, d)
    k *= j
    while n > 1:
        budget = [RHO_STEPS // (1 + (n.bit_length() // 256) ** 2)]
        p = n
        while not _certified_prime(p, budget):
            g = _brent(p, budget)
            p = min(g, p // g)
        e, n = valuation(n, p)
        out[p] = e * k


def _perfect_power(n: int, least: int) -> tuple[int, int]:
    """(r, k) with r^k = n and k largest, for n > 1 with no prime factor
    below least >= 2; so r >= least, which bounds k by log2(n)/log2(least).
    The prime exponents q are tried ascending, each as often as it applies."""
    k, step = 1, least.bit_length() - 1
    q = 2
    while q * step < n.bit_length():
        r = _exact_root(n, q)
        if r is None:
            q += 1
            while not _small_prime(q):
                q += 1
        else:
            n, k = r, k * q
    return n, k


def _exact_root(n: int, q: int) -> int | None:
    """r with r^q = n, or None. A q-th power is a q-th power residue modulo
    every prime l = 1 (mod q); a non-power passes each such test with odds
    about 1/q, so the root itself is taken for few non-powers."""
    for ell in _residue_primes(q):
        a = n % ell
        if a and pow(a, (ell - 1) // q, ell) != 1:
            return None
    r = isqrt(n) if q == 2 else _iroot(n, q)
    return r if r**q == n else None


def _iroot(n: int, q: int) -> int:
    """The integer q-th root of n >= 1, by Newton's method from a float
    estimate raised by 2^-20 of itself (far above the float's error), so
    every step decreases until the floor of the root is reached."""
    lg = log2(n) / q
    shift = max(int(lg) - 52, 0)
    est = int(2.0 ** (lg - shift)) << shift
    r = est + (est >> 20) + 2
    while True:
        s = ((q - 1) * r + n // r ** (q - 1)) // q
        if s >= r:
            return r
        r = s


@lru_cache(maxsize=None)
def _residue_primes(q: int) -> tuple[int, ...]:
    """The first _POWER_TESTS primes l = 1 (mod q), for a prime q."""
    found, ell = [], 1
    while len(found) < _POWER_TESTS:
        ell += q if q == 2 else 2 * q
        if _small_prime(ell):
            found.append(ell)
    return tuple(found)


def _small_prime(m: int) -> bool:
    """Primality of a small m >= 2 by trial division."""
    return m == 2 or (m % 2 == 1 and
                      all(m % f for f in range(3, isqrt(m) + 1, 2)))


def _strong_probable_prime(n: int, bases: tuple[int, ...]) -> bool:
    """Miller-Rabin on the given bases, for odd n > max(bases)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _certified_prime(n: int, budget: list[int]) -> bool:
    """Miller-Rabin for odd n > 41, exact below MR_EXACT_BELOW. Above it
    only base 2 is tried: False is then a proof of compositeness or means
    the test would cost more than budget[0], and a pass raises."""
    if n < MR_EXACT_BELOW:
        return _strong_probable_prime(n, MR_BASES)
    if n.bit_length() > budget[0]:
        return False
    budget[0] -= n.bit_length()
    if _strong_probable_prime(n, MR_BASES[:1]):
        raise Inconclusive(
            f"cannot factor {_integer_text(n)}: a probable prime at or above "
            f"{MR_EXACT_BELOW}, where Miller-Rabin on {len(MR_BASES)} prime "
            "bases is no proof")
    return False


def _brent(n: int, budget: list[int]) -> int:
    """A proper factor of the odd composite n by Pollard-Brent rho with
    x -> x^2 + c for c = 1, 2, ...; every step is charged to budget[0], and
    Inconclusive is raised before a round of steps it cannot pay for."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget[0] < 2 * r:
                raise Inconclusive(
                    f"cannot factor {_integer_text(n)}: Pollard rho found "
                    "no factor within its step budget")
            budget[0] -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: walk it again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _integer_text(n: int) -> str:
    # Python refuses to print an int of more than 4,300 digits by default
    if n.bit_length() > 4096:
        return f"an integer of {n.bit_length()} bits"
    return f"the integer {n}"
