"""Polynomials over F_p and their p-adic lifting: the modular half of
factoring over Q[t] (`polynomials._squarefree_factors`). A polynomial is a
list of integer coefficients in ascending order, returned without trailing
zeros. The product over Z (`_zmul`) and the power ladder (`_power`) are the
ones `polynomials` uses: a product mod p is the product over Z reduced
once, and a power mod f runs the ladder on products reduced mod p and f.
"""

from __future__ import annotations

import random
from itertools import zip_longest


def mod_trim(cs: list[int], p: int) -> list[int]:
    cs = [c % p for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _zmul(a, b) -> list[int]:
    """Product of integer coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _power(base, n: int, mul):
    """base^n for n >= 1 under the product mul, from the top bit of n down:
    one squaring per further bit and one product with base per further 1
    bit."""
    result = base
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


def mod_mul(a: list[int], b: list[int], p: int) -> list[int]:
    return mod_trim(_zmul(a, b), p)


def mod_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quot, rem) of a by b over F_p, both reduced mod p and without
    trailing zeros; a need not be reduced."""
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    shift = len(rem)
    while len(rem) >= len(b):
        # each step takes off the top term and reduces the len(b) - 1 below
        coef = rem.pop() * inv % p
        if coef:
            shift = len(rem) - len(low)
            quot[shift] = coef
            for j, y in enumerate(low):
                rem[shift + j] = (rem[shift + j] - coef * y) % p
    while quot and quot[-1] == 0:
        quot.pop()
    if shift:  # rem[:shift] is a as given
        return quot, mod_trim(rem, p)
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def mod_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, mod_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def mod_pow(h: list[int], q: int, f: list[int], p: int) -> list[int]:
    """h^q mod f over F_p, by the one power ladder."""
    if not q:
        return [1]
    return _power(mod_divmod(h, f, p)[1], q,
                  lambda a, b: mod_divmod(mod_mul(a, b, p), f, p)[1])


def factor_degree_pattern(ints: list[int], p: int) -> list[tuple[list[int], int]] | None:
    """Distinct-degree pieces (g, d) of f mod p: g is monic, the product of
    the monic irreducible factors of degree d of f mod p. None if p is a bad
    prime (leading coefficient vanishes or f mod p not squarefree).

    Distinct-degree factoring: the product of the irreducible factors of
    degree d divides x^(p^d) - x (Knuth, TAOCP vol. 2, 4.6.2)."""
    f = mod_trim(list(ints), p)
    if len(f) != len(ints):
        return None
    deriv = mod_trim([i * c % p for i, c in enumerate(f)][1:], p)
    if not deriv or len(mod_gcd(f, deriv, p)) != 1:
        return None
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    pieces: list[tuple[list[int], int]] = []
    d = 0
    h = mod_divmod([0, 1], f, p)[1]  # x^(p^d) mod f
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            pieces.append((f, len(f) - 1))
            break
        h = mod_pow(h, p, f, p)
        g = mod_gcd(f, mod_sub(h, [0, 1], p), p)
        if len(g) > 1:
            pieces.append((g, d))
            f = mod_divmod(f, g, p)[0]
            h = mod_divmod(h, f, p)[1]
    return pieces


def mod_sub(a: list[int], b: list[int], p: int, c: int = 1) -> list[int]:
    """a - c*b modulo p, without trailing zeros."""
    return mod_trim([x - c * y for x, y in zip_longest(a, b, fillvalue=0)], p)


def equal_degree_split(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors over F_p, p odd, of a monic squarefree g
    whose factors all have degree d (Cantor-Zassenhaus): for a random a,
    gcd(g, a^((p^d-1)/2) - 1) is a proper factor about half the time."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = mod_trim([rng.randrange(p) for _ in range(len(g) - 1)], p)
        h = mod_gcd(g, mod_sub(mod_pow(a, (p**d - 1) // 2, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return (equal_degree_split(h, d, p, rng)
                    + equal_degree_split(mod_divmod(g, h, p)[0], d, p, rng))


def hensel_lift(f: list[int], u: list[int], p: int, m: int) -> list[int]:
    """The monic factor of the monic f modulo m = p^k that is the irreducible
    u modulo p, lifted one p-adic digit a step against its cofactor v: with
    w*v = 1 mod u and e = (f - u*v)/q mod p, u += q*(w*e mod u) and
    v += q*(the exact quotient of e - v*(w*e mod u) by u) keep f = u*v
    modulo q*p."""
    v = mod_divmod(f, u, p)[0]
    w = mod_pow(v, p ** (len(u) - 1) - 2, u, p)  # F_p[t]/(u) is a field
    q = p
    while q < m:
        e = [c // q for c in mod_sub(f, mod_mul(u, v, m), m)]
        du = mod_divmod(mod_mul(w, e, p), u, p)[1]
        dv = mod_divmod(mod_sub(e, mod_mul(v, du, p), p), u, p)[0]
        u, v, q = mod_sub(u, du, m, -q), mod_sub(v, dv, m, -q), q * p
    return u
