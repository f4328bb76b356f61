"""Integer factorisation: trial division, Miller-Rabin, Pollard-Brent rho."""

import random

import pytest

from tamesym import Inconclusive
from tamesym.integers import (MAX_DIVISOR_BITS, MR_EXACT_BELOW,
                              PLAIN_TRIAL_BOUND, TRIAL_BOUND, divisors,
                              factor_positive_int, valuation)


def _trial_division(n):
    """Plain trial division by every d >= 2, one division per factor."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _plain_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _primes_between(lo, hi):
    return [p for p in range(lo, hi) if _trial_division(p) == {p: 1}]


def test_factorisation_matches_plain_trial_division():
    """Seeded products of small primes with exponents up to 70, and of
    primes just above the plain trial bound."""
    rng = random.Random(6)
    small = [2, 3, 5, 7, 11, 13, 101, 997]
    large = _primes_between(PLAIN_TRIAL_BOUND, PLAIN_TRIAL_BOUND + 400)
    cases = [1, 2, 4, 65521, 65537 * 65537, 65521 * 65537]
    for _ in range(150):
        n = 1
        for _ in range(rng.randint(1, 4)):
            n *= rng.choice(small) ** rng.randint(1, 70)
        cases.append(n)
    for _ in range(20):
        n = rng.choice(small) ** rng.randint(0, 3)
        for _ in range(rng.randint(1, 2)):
            n *= rng.choice(large) ** rng.randint(1, 3)
        cases.append(n)
    for n in cases:
        expected = _trial_division(n)
        got = factor_positive_int(n)
        assert got == expected, n
        assert list(got) == sorted(got), n
    for n in list(range(1, 400)) + [65536, 65537 * 6, 2 ** 10 * 3 ** 4]:
        assert divisors(n) == _plain_divisors(n), n
        assert divisors(-n) == _plain_divisors(n), n
    assert divisors(0) == []


def test_valuation_by_repeated_squaring():
    for p in (2, 3, 65537):
        for e in (0, 1, 2, 3, 7, 8, 31, 32, 33, 1000):
            assert valuation(p ** e * 5 ** 3 * 7, p) == (e, 5 ** 3 * 7)
    e, rest = valuation(3 ** 204800 * 2, 3)
    assert (e, rest) == (204800, 2)


@pytest.mark.parametrize("base, k", [
    (65537, 600), (1000003, 5000), (65537 * 65539, 300),
    (65537 ** 2 * 1000003, 70), (1048583, 3000), (1048583 * 2 ** 5, 40),
])
def test_large_powers_match_plain_trial_division(base, k):
    """base^k factors as plain trial division factors base, exponents times
    k: powers of primes just above 2^16 and 2^20 with up to 100,000 bits,
    which trial division finishes and Pollard rho alone cannot split."""
    expected = {p: e * k for p, e in _trial_division(base).items()}
    assert factor_positive_int(base ** k) == expected


def test_power_left_after_trial_division_is_rooted():
    """No perfect power at first, but 1048583^600 (12,000 bits) is left
    after trial division: too large for rho, so its root is taken."""
    assert factor_positive_int(65537 * 1048583 ** 600) == {
        65537: 1, 1048583: 600}


def test_many_primes_above_the_trial_bounds():
    """Products of hundreds of distinct primes just above 2^16, and of
    dozens just above 2^20, where rho must find each prime on its own
    budget."""
    for lo, count in ((PLAIN_TRIAL_BOUND, 300), (TRIAL_BOUND, 60)):
        primes = []
        p = lo + 1
        while len(primes) < count:
            if _trial_division(p) == {p: 1}:
                primes.append(p)
            p += 2
        n = 1
        for p in primes:
            n *= p
        assert factor_positive_int(n) == {p: 1 for p in primes}
        assert factor_positive_int(n * primes[-1] ** 4) == {
            **{p: 1 for p in primes[:-1]}, primes[-1]: 5}


def test_large_integers_are_certified_or_refused_by_name():
    assert factor_positive_int(1000000000000000003) == {1000000000000000003: 1}
    assert factor_positive_int(3 * 1000000007 ** 3) == {3: 1, 1000000007: 3}
    assert divisors(3 * 1000000007 ** 3) == sorted(
        3 ** i * 1000000007 ** j for i in range(2) for j in range(4))
    # a square of a prime near 1e19 is a perfect power; its root is certified
    assert factor_positive_int(10000000000000000051 ** 2) == {
        10000000000000000051: 2}
    # the least strong pseudoprime to all 13 bases is not called prime
    with pytest.raises(Inconclusive, match=f"integer {MR_EXACT_BELOW}: a "
                       "probable prime"):
        factor_positive_int(MR_EXACT_BELOW)
    # primes near 1e18 and 1e19: rho runs out of budget and names the integer
    n = 1000000000000000003 * 10000000000000000051
    with pytest.raises(Inconclusive, match=f"integer {n}: Pollard rho"):
        factor_positive_int(n)


def test_divisor_lists_are_bounded():
    """A list whose count times the bit length of n exceeds the bound is
    refused before it is built; n = 963761198400 has 6,720 divisors."""
    divs = divisors(963761198400)
    assert len(divs) == 6720 and divs == sorted(divs)
    assert all(963761198400 % d == 0 for d in divs)
    n = 3 ** 81920
    assert 81921 * n.bit_length() > MAX_DIVISOR_BITS
    with pytest.raises(Inconclusive, match="divisors of an integer of 129841 "
                       "bits: 81921 of them"):
        divisors(n)
