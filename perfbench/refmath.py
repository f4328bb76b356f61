"""Reference arithmetic for the benchmark's output checks.

Nothing here imports tamesym: these are the independent computations the
benchmark compares the program's answers against. Polynomials are lists
of coefficients in ascending order; integer lists for construction,
Fraction lists for evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction


# ---------------------------------------------------------------------------
# integers and rational classes
# ---------------------------------------------------------------------------


def factor_int(n: int) -> dict[int, int]:
    """Prime factorisation of a positive integer by trial division.

    The generators keep every value they hand to this small, so trial
    division is enough.
    """
    if n <= 0:
        raise ValueError("expected a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def rational_class(c: Fraction) -> dict[int, int]:
    """Prime exponents of a nonzero rational, sign dropped."""
    if c == 0:
        raise ZeroDivisionError("the class of 0 is undefined")
    out = dict(factor_int(abs(c.numerator)))
    for p, e in factor_int(c.denominator).items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e}


def add_class(acc: dict, other: dict, times: int = 1) -> dict:
    for k, e in other.items():
        acc[k] = acc.get(k, 0) + times * e
        if acc[k] == 0:
            del acc[k]
    return acc


# ---------------------------------------------------------------------------
# univariate polynomials as coefficient lists
# ---------------------------------------------------------------------------


def trim(cs: list) -> list:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def peval(cs: list, x: Fraction) -> Fraction:
    acc = Q(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def monic(cs: list) -> tuple:
    """Monic Fraction coefficient tuple, the program's univariate atom key."""
    lead = Q(cs[-1])
    return tuple(Q(c) / lead for c in cs)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def has_rational_root(cs: list[int]) -> bool:
    """Rational-root test on an integer polynomial with nonzero constant."""
    a0, an = cs[0], cs[-1]
    if a0 == 0:
        return True
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Q(p, q), Q(-p, q)):
                if peval(cs, cand) == 0:
                    return True
    return False


def quadratic_irreducible(cs: list[int]) -> bool:
    """a*t^2 + b*t + c is irreducible over Q iff b^2 - 4ac is not a square."""
    c, b, a = cs
    disc = b * b - 4 * a * c
    return disc < 0 or math.isqrt(disc) ** 2 != disc


def cubic_irreducible(cs: list[int]) -> bool:
    """A cubic is irreducible over Q iff it has no rational root."""
    return len(cs) == 4 and not has_rational_root(cs)


def eisenstein_prime(cs: list[int]) -> int | None:
    """A prime p for which Eisenstein's criterion holds, or None."""
    for p in factor_int(abs(cs[0])) if cs[0] else ():
        if (cs[-1] % p and all(c % p == 0 for c in cs[:-1])
                and cs[0] % (p * p)):
            return p
    return None


# ---------------------------------------------------------------------------
# irreducibility modulo a prime (Rabin's test)
# ---------------------------------------------------------------------------


def _mod_trim(cs: list[int], p: int) -> list[int]:
    return trim([c % p for c in cs])


def _mod_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = _mod_trim(a, p)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        coef = a[-1] * inv % p
        shift = len(a) - len(b)
        for j, y in enumerate(b):
            a[shift + j] = (a[shift + j] - coef * y) % p
        a = trim(a)
    return a


def _mod_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    return _mod_rem(pmul(a, b), f, p)


def _mod_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _mod_trim(a, p), _mod_trim(b, p)
    while b:
        a, b = b, _mod_rem(a, b, p)
    return a


def _frobenius_power(f: list[int], p: int, k: int) -> list[int]:
    """t^(p^k) mod f over F_p."""
    x = [0, 1]
    for _ in range(k):
        result, base, e = [1], _mod_rem(x, f, p), p
        while e:
            if e & 1:
                result = _mod_mulmod(result, base, f, p)
            base = _mod_mulmod(base, base, f, p)
            e >>= 1
        x = result
    return x


def irreducible_mod(cs: list[int], p: int) -> bool:
    """Rabin's test: f is irreducible over F_p iff t^(p^n) = t mod f and
    gcd(t^(p^(n/q)) - t, f) = 1 for every prime q dividing n."""
    if cs[-1] % p == 0:
        return False
    n = len(cs) - 1
    f = _mod_trim(cs, p)
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    minus_t = [0, p - 1]
    for q in factor_int(n):
        h = _frobenius_power(f, p, n // q)
        diff = trim([(a + b) % p for a, b in
                     zip(h + [0] * 2, minus_t + [0] * len(h))])
        if len(_mod_gcd(f, diff, p)) != 1:
            return False
    h = _frobenius_power(f, p, n)
    diff = trim([(a + b) % p for a, b in zip(h + [0] * 2, minus_t + [0] * len(h))])
    return not diff


SMALL_PRIMES = [p for p in range(2, 98) if all(p % d for d in range(2, p))]


def irreducible_mod_small_prime(cs: list[int]) -> bool:
    """True when f stays irreducible modulo one of the 25 primes below 100.

    A polynomial passing this is irreducible over Q, and any certifier that
    tries the first 25 primes for factor-degree patterns decides it.
    """
    return any(irreducible_mod(cs, p) for p in SMALL_PRIMES)


# ---------------------------------------------------------------------------
# bivariate polynomials as {(i, j): int} maps
# ---------------------------------------------------------------------------


def bi_primitive(poly: dict) -> tuple[int, tuple]:
    """(content, key) with content * primitive = poly, the primitive part
    having a positive coefficient at its lexicographically largest
    monomial; key is the sorted term tuple the program uses for atoms."""
    g = 0
    for v in poly.values():
        g = math.gcd(g, v)
    if poly[max(poly)] < 0:
        g = -g
    return g, tuple(sorted((k, Q(v // g)) for k, v in poly.items() if v))


def bi_from_uni(cs: list[int], var: str) -> dict:
    if var == "x":
        return {(i, 0): c for i, c in enumerate(cs) if c}
    return {(0, i): c for i, c in enumerate(cs) if c}


# ---------------------------------------------------------------------------
# canonical text (the program's documented output format)
# ---------------------------------------------------------------------------


def poly_text(cs: list, var: str) -> str:
    """Highest degree first, explicit '*' and '^', unit coefficients bare."""
    parts: list[str] = []
    for i in range(len(cs) - 1, -1, -1):
        c = Q(cs[i])
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# the tame symbol at a rational place, from known factorisations
# ---------------------------------------------------------------------------


def order_and_unit(const: Fraction, factors: list[tuple[list[int], int]],
                   place: Fraction) -> tuple[int, Fraction]:
    """For f = const * prod(q^e): the order v of f at t = place and the
    value at the place of the unit f / (t - place)^v."""
    order = 0
    unit = Q(const)
    for cs, e in factors:
        value = peval(cs, place)
        if value == 0:
            # generators only use linear factors a*t - b with this root
            if len(cs) != 2:
                raise ValueError("a nonlinear factor vanishes at a rational place")
            order += e
            unit *= Q(cs[1]) ** e
        else:
            unit *= value ** e
    return order, unit


def tame_symbol_class(f, g, place: Fraction) -> dict[int, int]:
    """Class of (-1)^(v(f)v(g)) f^v(g) / g^v(f) at t = place, sign dropped.

    f and g are (const, factors) pairs.
    """
    vf, uf = order_and_unit(*f, place)
    vg, ug = order_and_unit(*g, place)
    out: dict[int, int] = {}
    add_class(out, rational_class(uf), vg)
    add_class(out, rational_class(ug), -vf)
    return out


# ---------------------------------------------------------------------------
# strict normal crossings of line-and-parabola arrangements
# ---------------------------------------------------------------------------
#
# A curve is ("V", a) for x = a, ("H", b) for y = b, ("S", m, c) for
# y = m*x + c with m != 0, or ("P", c) for y = x^2 + c. On the product of
# two projective lines, slanted lines and the parabola all pass through
# (inf, inf); two slanted lines are tangent there exactly when parallel,
# and a slanted line meets the parabola there transversally. Vertical and
# horizontal lines meet infinity at (a, inf) and (inf, b) alone.


def curve_text(cv) -> str:
    if cv[0] == "V":
        return f"x={cv[1]}"
    if cv[0] == "H":
        return f"y={cv[1]}"
    if cv[0] == "S":
        return "y=" + poly_text([cv[2], cv[1]], "x")
    return "y=" + poly_text([cv[1], 0, 1], "x")


def _through(cv, x: Fraction, y: Fraction) -> bool:
    kind = cv[0]
    if kind == "V":
        return x == cv[1]
    if kind == "H":
        return y == cv[1]
    if kind == "S":
        return y == cv[1] * x + cv[2]
    return y == x * x + cv[1]


def _slope_at(cv, x: Fraction):
    """dy/dx along the curve at abscissa x; None for a vertical line."""
    kind = cv[0]
    if kind == "V":
        return None
    if kind == "H":
        return Q(0)
    if kind == "S":
        return cv[1]
    return 2 * x


def _pair_points(c1, c2) -> list[tuple[Fraction, Fraction]]:
    """Rational finite intersection points of two distinct curves.

    Irrational meetings (a line and the parabola) have exactly those two
    curves through them, because two lines meet at a rational point, and
    their tangency would force a double, hence rational, root.
    """
    order = {"V": 0, "H": 1, "S": 2, "P": 3}
    if order[c1[0]] > order[c2[0]]:
        c1, c2 = c2, c1
    k1, k2 = c1[0], c2[0]
    if k1 == "V":
        if k2 == "V":
            return []
        a = c1[1]
        y = {"H": lambda: c2[1], "S": lambda: c2[1] * a + c2[2],
             "P": lambda: a * a + c2[1]}[k2]()
        return [(a, y)]
    if k1 == "H":
        b = c1[1]
        if k2 == "H":
            return []
        if k2 == "S":
            return [((b - c2[2]) / c2[1], b)]
        return [(x, b) for x in _rational_roots_quadratic(Q(1), Q(0), c2[1] - b)]
    if k1 == "S" and k2 == "S":
        if c1[1] == c2[1]:
            return []
        x = (c2[2] - c1[2]) / (c1[1] - c2[1])
        return [(x, c1[1] * x + c1[2])]
    # slanted line and parabola: x^2 + c - m*x - k = 0
    return [(x, c1[1] * x + c1[2])
            for x in _rational_roots_quadratic(Q(1), -c1[1], c2[1] - c1[2])]


def _rational_roots_quadratic(a: Fraction, b: Fraction, c: Fraction) -> list[Fraction]:
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    num, den = disc.numerator, disc.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return []
    r = Q(rn, rd)
    return sorted({(-b + r) / (2 * a), (-b - r) / (2 * a)})


def snc_problems(curves: list) -> set[tuple[str, str, frozenset]]:
    """Every triple point and tangency of an arrangement, as
    (kind, where, names of the curves through it)."""
    problems = set()
    points: set = set()
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            points.update(_pair_points(curves[i], curves[j]))
    for x, y in points:
        members = [cv for cv in curves if _through(cv, x, y)]
        names = frozenset(curve_text(cv) for cv in members)
        where = f"({x}, {y})"
        if len(members) >= 3:
            problems.add(("triple", where, names))
        elif len(members) == 2:
            s1, s2 = (_slope_at(cv, x) for cv in members)
            if s1 == s2:
                problems.add(("tangency", where, names))
    at_inf = [cv for cv in curves if cv[0] in ("S", "P")]
    names = frozenset(curve_text(cv) for cv in at_inf)
    if len(at_inf) >= 3:
        problems.add(("triple", "(inf, inf)", names))
    elif (len(at_inf) == 2 and all(cv[0] == "S" for cv in at_inf)
          and at_inf[0][1] == at_inf[1][1]):
        problems.add(("tangency", "(inf, inf)", names))
    return problems


# ---------------------------------------------------------------------------
# self-test: each check must reject one deliberately wrong answer
# ---------------------------------------------------------------------------


def self_test() -> None:
    """Raise AssertionError unless every reference check accepts a known
    right answer and rejects a deliberately wrong one."""
    assert factor_int(360) == {2: 3, 3: 2, 5: 1}
    assert factor_int(360) != {2: 3, 3: 2}
    assert rational_class(Q(-12, 35)) == {2: 2, 3: 1, 5: -1, 7: -1}
    assert rational_class(Q(-12, 35)) != {2: 2, 3: 1, 5: 1, 7: -1}
    assert quadratic_irreducible([2, 0, 1]) and not quadratic_irreducible([-4, 0, 1])
    assert cubic_irreducible([3, 3, 0, 1]) and not cubic_irreducible([-8, 0, 0, 1])
    assert eisenstein_prime([2, 4, 0, 6, 1]) == 2
    assert eisenstein_prime([4, 2, 0, 1]) is None
    assert irreducible_mod_small_prime([2, 4, 0, 6, 2, 1])
    assert not irreducible_mod_small_prime([1, 0, 0, 0, 0, 0, 1])  # t^6+1
    assert bi_primitive({(0, 1): -2, (2, 0): 4}) == (
        2, (((0, 1), Q(-1)), ((2, 0), Q(2))))
    assert bi_primitive({(0, 1): 2, (2, 0): -4})[0] == -2
    assert poly_text([Q(3, 2), -1, 0, 2], "x") == "2*x^3-x+3/2"
    # w[(t-3)^2*(t^2+2), (t-3)*(t^3+3t+3)] at t=3: 11 / 39^2
    f = (Q(1), [([-3, 1], 2), ([2, 0, 1], 1)])
    g = (Q(1), [([-3, 1], 1), ([3, 3, 0, 1], 1)])
    want = {11: 1, 3: -2, 13: -2}
    assert tame_symbol_class(f, g, Q(3)) == want
    assert tame_symbol_class(g, f, Q(3)) != want
    # y=x, y=x+1, y=2x, x=1, y=2: a four-fold point at (1, 2) and the three
    # slanted lines at (inf, inf)
    lines = [("S", Q(1), Q(0)), ("S", Q(1), Q(1)), ("S", Q(2), Q(0)),
             ("V", Q(1)), ("H", Q(2))]
    got = snc_problems(lines)
    assert got == {
        ("triple", "(1, 2)", frozenset({"x=1", "y=2", "y=2*x", "y=x+1"})),
        ("triple", "(inf, inf)", frozenset({"y=x", "y=x+1", "y=2*x"}))}
    assert snc_problems(lines[:2]) == {
        ("tangency", "(inf, inf)", frozenset({"y=x", "y=x+1"}))}
    assert snc_problems(lines[:1] + lines[2:3]) == set()
    parabola = [("P", Q(1)), ("H", Q(1)), ("S", Q(2), Q(0))]
    assert snc_problems(parabola) == {
        ("tangency", "(0, 1)", frozenset({"y=1", "y=x^2+1"})),
        ("tangency", "(1, 2)", frozenset({"y=2*x", "y=x^2+1"}))}
