"""Exact univariate and bivariate polynomial arithmetic."""

import math
import random
from fractions import Fraction as Q

import pytest

from tamesym import Inconclusive, UniPoly, BiPoly, poly_str, bipoly_str
from tamesym import modular, polynomials
from tamesym.integers import divisors
from tamesym.polynomials import (_SUBSET_BUDGET, bipoly_exact_div,
                                 factor_uni, gcd_uni, irreducible_check_uni,
                                 rational_roots, squarefree_decomposition)

P = UniPoly.make


def rand_poly(rng, max_deg=5):
    deg = rng.randint(0, max_deg)
    cs = [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
    cs.append(Q(rng.choice([c for c in range(-5, 6) if c])))
    return P(cs)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == P([])


def test_divmod_inverts_multiplication():
    rng = random.Random(12)
    for _ in range(40):
        a = rand_poly(rng)
        b = rand_poly(rng, 3)
        if b.is_zero:
            continue
        q, r = a.divmod(b)
        assert b * q + r == a
        assert r.is_zero or r.degree < b.degree


def test_zero_polynomial_degree():
    assert P([]).degree == -1
    assert P([0, 0]).is_zero
    assert P([0, 1]).degree == 1


def test_evaluate_and_compose():
    f = P([2, -3, 1])  # t^2 - 3t + 2
    assert f.evaluate(1) == 0
    assert f.evaluate(2) == 0
    assert f.evaluate(Q(1, 2)) == Q(3, 4)


def _derivative(f):
    """Reference: the formal derivative, for Yun's algorithm below."""
    return UniPoly.make([i * c for i, c in enumerate(f.coeffs)][1:])


def test_derivative_product_rule():
    rng = random.Random(13)
    for _ in range(25):
        a, b = rand_poly(rng, 4), rand_poly(rng, 4)
        lhs = _derivative(a * b)
        rhs = _derivative(a) * b + a * _derivative(b)
        assert lhs == rhs


def test_poly_str_canonical_form():
    assert poly_str(P([Q(1, 2), -3, 1]), "t") == "t^2-3*t+1/2"
    assert poly_str(P([0, 1]), "t") == "t"
    assert poly_str(P([-1, 0, 0, 2]), "x") == "2*x^3-1"
    assert poly_str(P([]), "t") == "0"
    assert poly_str(P([5]), "t") == "5"
    assert poly_str(P([0, -1]), "t") == "-t"


def test_gcd_and_lcm():
    a = P([-1, 1]) * P([-2, 1])
    b = P([-2, 1]) * P([-3, 1])
    assert gcd_uni(a, b) == P([-2, 1])
    assert gcd_uni(a, P([])) == a.monic()


def test_rational_roots():
    f = P([1, -5, 6])  # 6t^2 - 5t + 1
    assert rational_roots(f) == [(Q(1, 3), 1), (Q(1, 2), 1)]
    g = P([-1, 1]) ** 3 * P([2, 1])
    found = dict(rational_roots(g))
    assert found == {Q(1): 3, Q(-2): 1}
    assert rational_roots(P([1, 0, 1])) == []


def test_squarefree_decomposition():
    f = P([-1, 1]) ** 2 * P([-2, 1])
    parts = [(str(p), e) for p, e in squarefree_decomposition(f)]
    assert parts == [("t-2", 1), ("t-1", 2)]
    rng = random.Random(15)
    for _ in range(20):
        g = rand_poly(rng, 3)
        if g.degree < 1:
            continue
        rebuilt = UniPoly.const(g.leading)
        for p, e in squarefree_decomposition(g):
            rebuilt = rebuilt * p ** e
        assert rebuilt == g


def test_irreducible_low_degrees():
    assert irreducible_check_uni(P([3, 2]))
    assert irreducible_check_uni(P([-2, 0, 1]))
    assert not irreducible_check_uni(P([-1, 0, 1]))
    assert irreducible_check_uni(P([-2, 0, 0, 1]))
    assert not irreducible_check_uni(P([-8, 0, 0, 1]))


def test_irreducible_degree_four():
    """Degree four is decided outright, even the cases that factor into
    two irreducible quadratics or are reducible modulo every prime."""
    assert irreducible_check_uni(P([1, 0, 0, 0, 1]))       # t^4 + 1
    assert irreducible_check_uni(P([1, 0, -10, 0, 1]))     # (sqrt2+sqrt3)
    assert not irreducible_check_uni(P([-4, 0, 0, 0, 1]))  # (t^2-2)(t^2+2)
    assert not irreducible_check_uni(P([2, 0, 3, 0, 1]))   # (t^2+1)(t^2+2)


def test_irreducible_degree_five_certified():
    assert irreducible_check_uni(P([-1, -1, 0, 0, 0, 1]))  # t^5 - t - 1


def swinnerton_dyer(primes):
    """The product of t - sum(+-sqrt(p)) over every choice of signs, of
    degree 2^len(primes), by the conjugate-product loop
    f(t) -> f(t + sqrt(p)) * f(t - sqrt(p)); with f(t + sqrt(p)) written
    as a + sqrt(p)*b, the product is a^2 - p*b^2."""
    t = f = P([0, 1])
    for p in primes:
        a = b = P([])
        for c in reversed(f.coeffs):
            a, b = a * t + b.scale(p) + P([c]), b * t + a
        f = a * a - (b * b).scale(p)
    return f


def test_irreducible_inconclusive_rather_than_guess():
    """Swinnerton-Dyer polynomials factor modulo every prime into factors of
    degree at most 2, so modular degree patterns never certify them and
    recombination must try many subsets. Degrees 8 and 16 are certified;
    degree 32 needs more than the subset budget, and the checker says so,
    naming the polynomial, instead of returning either answer."""
    assert swinnerton_dyer((2, 3, 5)) == P([576, 0, -960, 0, 352, 0, -40, 0, 1])
    for primes in ((2, 3, 5), (2, 3, 5, 7)):
        assert irreducible_check_uni(swinnerton_dyer(primes))
    sd32 = swinnerton_dyer((2, 3, 5, 7, 11))
    assert sd32.degree == 32
    with pytest.raises(Inconclusive) as err:
        irreducible_check_uni(sd32)
    assert str(err.value) == (
        f"cannot factor degree-32 polynomial {poly_str(sd32, 't')}: over "
        f"{_SUBSET_BUDGET} recombination subsets")


def test_factor_uni_rebuilds_input():
    rng = random.Random(16)
    for _ in range(25):
        f = P([1])
        for _ in range(rng.randint(1, 3)):
            f = f * P([rng.randint(-4, 4), rng.choice([1, 1, 2])])
        f = f.scale(Q(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2])))
        c, parts = factor_uni(f)
        rebuilt = UniPoly.const(c)
        for q, e in parts:
            assert q.leading == 1
            rebuilt = rebuilt * q ** e
        assert rebuilt == f


def _ref_divmod(a, b):
    """Reference: schoolbook division over Q, one Fraction at a time."""
    dq = a.degree - b.degree
    if dq < 0:
        return P([]), a
    rem = list(a.coeffs)
    quot = [Q(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        q = rem[k + b.degree] / b.leading
        quot[k] = q
        for j, c in enumerate(b.coeffs):
            rem[k + j] -= q * c
    return P(quot), P(rem)


def _euclid_gcd(f, g):
    """Reference: the plain Euclidean algorithm over Q, made monic."""
    a, b = f, g
    while not b.is_zero:
        a, b = b, _ref_divmod(a, b)[1]
    return a if a.is_zero else a.monic()


def _ref_rational_roots(f):
    """Reference: evaluate f over Q at every p/q with p | a_0 and q | a_n of
    an integer multiple of f, and count each root by dividing by t - root."""
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in f.coeffs]
    low = next(i for i, c in enumerate(ints) if c)
    out = [(Q(0), low)] if low else []

    def divisors(n):
        n = abs(n)
        return {e for d in range(1, math.isqrt(n) + 1) if n % d == 0
                for e in (d, n // d)}

    g = P(ints[low:])
    cands = {Q(s * p, q) for p in divisors(ints[low]) for q in divisors(ints[-1])
             for s in (1, -1)}
    for r in sorted(cands):
        k = 0
        while g.degree > 0 and g.evaluate(r) == 0:
            g = _ref_divmod(g, P([-r, 1]))[0]
            k += 1
        if k:
            out.append((r, k))
    return sorted(out)


def rand_wide(rng, deg):
    """Degree deg, mixed denominators, leading coefficient of either sign
    and rarely 1."""
    cs = [Q(rng.randint(-20, 20), rng.choice((1, 1, 2, 3, 7, 12)))
          for _ in range(deg)]
    cs.append(Q(rng.choice([c for c in range(-9, 10) if c]),
                rng.choice((1, 2, 5))))
    return P(cs)


def test_integer_kernels_match_fraction_references():
    """divmod, gcd_uni and rational_roots agree with the Fraction
    schoolbook division, Euclid's algorithm and evaluation at every
    candidate, on degrees 0-30."""
    rng = random.Random(18)
    for _ in range(60):
        a = rand_wide(rng, rng.randint(0, 30))
        b = rand_wide(rng, rng.randint(0, 30))
        assert a.divmod(b) == _ref_divmod(a, b)
        assert (a * b).divmod(b) == _ref_divmod(a * b, b) == (a, P([]))
        assert gcd_uni(a, b) == _euclid_gcd(a, b)
        c = rand_wide(rng, rng.randint(1, 8))
        shared = gcd_uni(a * c, b * c)
        assert shared == _euclid_gcd(a * c, b * c)
        assert shared.divmod(c)[1].is_zero
        assert gcd_uni(a, P([])) == _euclid_gcd(a, P([]))
        assert gcd_uni(P([]), b) == _euclid_gcd(P([]), b)
    assert gcd_uni(P([]), P([])) == _euclid_gcd(P([]), P([])) == P([])
    for _ in range(40):
        f = rand_wide(rng, rng.randint(0, 3))
        for _ in range(rng.randint(0, 5)):
            root = P([-rng.randint(-4, 4), rng.randint(1, 3)])
            f = f * root ** rng.randint(1, 2)
        f = f * P([1, 0, 0, rng.randint(1, 3)]) ** rng.randint(0, 6)
        if f.degree > 0:
            assert rational_roots(f) == _ref_rational_roots(f)


def _unfiltered_rational_roots(f):
    """rational_roots with every coprime candidate p/q evaluated: the same
    integer kernels, no test at t = 1 and t = -1."""
    ints = polynomials._zprim(f.ints)
    low = next(i for i, c in enumerate(ints) if c)
    out = [(Q(0), low)] if low else []
    ints = ints[low:]
    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            if math.gcd(p, q) != 1:
                continue
            for num in (p, -p):
                k = 0
                while (len(ints) > 1
                       and polynomials._homogeneous_value(ints, num, q) == 0):
                    ints = polynomials._zdivmod(ints, [-num, q])[1]
                    k += 1
                if k:
                    out.append((Q(num, q), k))
    return sorted(out)


def _root_products():
    """Seeded products of roots p/q with q - p or q + p in {-1, 0, 1}
    (p/q = +-1 among them, where the divisor tested is 0), roots with large
    numerators and denominators, repeated roots and rootless factors."""
    rng = random.Random(909)
    near = [(1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2), (3, 2),
            (-3, 4), (5, 4), (4, 5)]
    for _ in range(120):
        f = P([rng.choice([-6, -1, 1, 12, 360, 720720])])
        for _ in range(rng.randint(0, 4)):
            p, q = rng.choice(near) if rng.random() < 0.6 else (
                rng.choice([-1, 1]) * rng.randint(1, 5040),
                rng.choice([1, 2, 9, 5040]))
            f = f * P([-p, q]) ** rng.choice([1, 1, 2, 3])
        for _ in range(rng.randint(0, 2)):
            f = f * P([rng.choice([1, 2, 360]), rng.randint(-3, 3), 0,
                       rng.choice([1, 2, 7])])
        if f.degree > 0:
            yield f


def test_rational_roots_match_the_unfiltered_loop():
    """The products of `_root_products`, whose squarefree parts have at most
    2,112 coprime candidates each, within _PAIR_WALK: all walked."""
    for f in _root_products():
        assert rational_roots(f) == _unfiltered_rational_roots(f)


def test_rational_roots_past_the_pair_walk_come_from_the_lift(monkeypatch):
    """Past _PAIR_WALK coprime candidates (0 here), and wherever the
    divisors of a_0 cannot be listed, no candidate is evaluated: the Hensel
    lift finds the linear factors, and so every root."""
    def unused(ints, p, q):
        raise AssertionError("a root candidate was evaluated")

    def unlisted(n):
        raise Inconclusive(f"cannot list the divisors of {n}")

    products = [*_root_products(), P([360, 1, 360, 360]) * P([-7, 5]) * P([2, 3]) ** 2]
    expected = [_unfiltered_rational_roots(f) for f in products]
    assert expected[-1] == [(Q(-2, 3), 2), (Q(7, 5), 1)]
    monkeypatch.setattr(polynomials, "_homogeneous_value", unused)
    for name, value in (("_PAIR_WALK", 0), ("divisors", unlisted)):
        with monkeypatch.context() as patch:
            patch.setattr(polynomials, name, value)
            assert [rational_roots(f) for f in products] == expected


def test_rational_roots_test_candidates_at_plus_minus_one(monkeypatch):
    """963761198400 has 6,720 divisors, so 963761198400*t^3+t+963761198400
    has 426k coprime candidates p/q, past _PAIR_WALK: raised here, so the
    walk runs. A root p/q makes q*t - p a factor, so q - p divides f(1) and
    q + p divides f(-1) = -1: a few are left to evaluate, +-1 among them."""
    calls = 0
    value = polynomials._homogeneous_value

    def counted(ints, p, q):
        nonlocal calls
        calls += 1
        return value(ints, p, q)

    monkeypatch.setattr(polynomials, "_homogeneous_value", counted)
    monkeypatch.setattr(polynomials, "_PAIR_WALK", 2**22)
    c = 963761198400
    assert rational_roots(P([c, 1, 0, c])) == []
    assert 2 <= calls <= 10
    calls = 0
    f = P([c, 1, 0, c]) * P([-1, 1]) ** 2 * P([1, 1]) * P([-7, 5])
    assert rational_roots(f) == [(Q(-1), 1), (Q(1), 2), (Q(7, 5), 1)]
    assert 2 <= calls <= 40


def test_refusal_without_a_usable_odd_prime(monkeypatch):
    """A part that no usable prime certifies or splits is refused by name:
    with the pool cut to [2], t^4+1 has no usable prime at all, since it is
    not squarefree modulo 2."""
    monkeypatch.setattr(polynomials, "_PRIME_POOL", [2])
    with pytest.raises(Inconclusive) as err:
        factor_uni(P([1, 0, 0, 0, 1]))
    assert str(err.value) == ("cannot factor degree-4 polynomial t^4+1: "
                              "no usable odd prime")


def test_constant_and_linear_closed_forms():
    """Constants and linear polynomials factor to the answer known by
    construction, and a nonzero constant has gcd 1 with anything, as Euclid
    says."""
    rng = random.Random(17)
    for _ in range(60):
        a1 = Q(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
        a0 = Q(rng.choice([0, 0, -4, 1, 9]), rng.choice([1, 3]))
        cases = ((P([a1]), []), (P([a0, a1]), [(P([a0 / a1, 1]), 1)]))
        for f, expected in cases:
            c, parts = factor_uni(f)
            assert (c, parts) == (a1, expected)
            rebuilt = UniPoly.const(c)
            for q, e in parts:
                rebuilt = rebuilt * q ** e
            assert rebuilt == f
            for g in (rand_poly(rng), P([])):
                assert gcd_uni(f, g) == _euclid_gcd(f, g)
                assert gcd_uni(g, f) == _euclid_gcd(g, f)
    assert gcd_uni(P([]), P([])).is_zero


def test_quartic_with_huge_coefficients_splits():
    """Quadratic pairs are found when the coefficients are beyond float
    precision (A = 10^17 + 1) or float range (B = 10^170)."""
    a = 10**17 + 1
    q1, q2 = P([1, a, 1]), P([3, 7 - a, 1])
    assert not irreducible_check_uni(q1 * q2)
    assert factor_uni(q1 * q2) == (1, [(q1, 1), (q2, 1)])
    b = 10**170
    q1, q2 = P([1, b, 1]), P([3, -b, 1])
    assert factor_uni(q1 * q2) == (1, [(q1, 1), (q2, 1)])


def test_non_monic_quartic_splits_into_quadratics():
    """A rootless quartic with leading coefficient a4 != 1 splits, and the
    quadratics come back monic over Q."""
    f = (P([1, 0, 2]) * P([5, 1, 3])).scale(Q(-7, 2))  # (2t^2+1)(3t^2+t+5)
    assert f.leading == -21
    assert factor_uni(f) == (-21, [(P([Q(1, 2), 0, 1]), 1),
                                   (P([Q(5, 3), Q(1, 3), 1]), 1)])
    assert not irreducible_check_uni(f)
    assert irreducible_check_uni(P([5, 1, 0, 0, 3]))  # 3t^4+t+5


def test_squared_irreducible_quadratic():
    sq = (P([1, 0, 1]) ** 2).scale(3)
    assert factor_uni(sq) == (3, [(P([1, 0, 1]), 2)])
    assert not irreducible_check_uni(sq)
    cube = P([1, 0, 1]) ** 2 * P([2, 0, 1]) * P([-1, 1])
    assert factor_uni(cube) == (1, [(P([-1, 1]), 1), (P([1, 0, 1]), 2),
                                    (P([2, 0, 1]), 1)])


def test_eisenstein_polynomials_and_their_products():
    """t^n + 2t + 2 is Eisenstein at 2, and certified for n = 4..8. A product
    with a repeated factor or a rational root is refuted by that witness; a
    product of two distinct ones is split, whatever its content."""
    eis = {n: P([2, 2] + [0] * (n - 2) + [1]) for n in range(4, 9)}
    for n, f in eis.items():
        assert irreducible_check_uni(f)
        assert factor_uni(f) == (1, [(f, 1)])
        assert not irreducible_check_uni(f * f)
        assert not irreducible_check_uni(f * P([-1, 2]))
        assert factor_uni(f * f) == (1, [(f, 2)])
    for a in range(4, 8):
        b = a + 1
        g = eis[a] * eis[b]
        assert not irreducible_check_uni(g)
        assert factor_uni(g) == (1, [(eis[a], 1), (eis[b], 1)])
        assert factor_uni(g.scale(5)) == (5, [(eis[a], 1), (eis[b], 1)])


def test_sextic_splits_without_a_remembered_factor():
    """t^6+1 = (t^2+1)(t^4-t^2+1) splits with no factor supplied."""
    q, cofactor = P([1, 0, 1]), P([1, 0, -1, 0, 1])
    expected = [(q, 1), (cofactor, 1)]
    assert factor_uni(q * cofactor) == (1, expected)
    assert factor_uni((q * cofactor).scale(Q(-3, 2))) == (Q(-3, 2), expected)


def _rand_eisenstein(rng):
    """A monic polynomial of degree 3-8, Eisenstein at a prime p: p divides
    every lower coefficient and p^2 does not divide the constant."""
    p, n = rng.choice([2, 3, 5]), rng.randint(3, 8)
    lower = [p * rng.choice([1, 2, 4, -1, -2]) for _ in range(n)]
    lower[0] = p * rng.choice([1, -1, 7])
    return P(lower + [1])


def _rand_quadratic(rng):
    """t^2 + b*t + c with b^2 - 4c not a square, so irreducible over Q."""
    while True:
        b, c = rng.randint(-6, 6), rng.randint(-9, 9)
        disc = b * b - 4 * c
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            return P([c, b, 1])


def test_products_factor_to_their_construction():
    """Seeded products of certified irreducibles (quadratics, Eisenstein
    polynomials of degree 3-8, t^4+1, the degree-8 Swinnerton-Dyer
    polynomial) and linear factors, with rational content, factor to
    exactly the factors they were built from. Several nonlinear factors
    share a multiplicity, so one squarefree part holds several of them."""
    rng = random.Random(1111)
    fixed = (P([1, 0, 0, 0, 1]), swinnerton_dyer((2, 3, 5)))
    for _ in range(300):
        expected = {}
        for _ in range(rng.randint(2, 3)):
            q = rng.choice((_rand_quadratic, _rand_eisenstein,
                            lambda r: r.choice(fixed)))(rng)
            expected[q] = rng.choice([1, 1, 1, 2])
        for _ in range(rng.randint(0, 2)):
            expected[P([Q(rng.randint(-5, 5), rng.choice([1, 2, 3])), 1])] = rng.choice([1, 2])
        c = Q(rng.choice([-7, -3, 2, 5]), rng.choice([1, 3, 4]))
        f = P([c])
        for q, e in expected.items():
            f = f * q ** e
        assert factor_uni(f) == (c, sorted(expected.items(), key=lambda t: t[0].key()))


def test_many_quadratics_factor_by_the_lift():
    """The product of t^2+k for k = 1..30 has no rational root, and its
    constant term 30! has too many divisors to list, so it was refused;
    the lift splits it into exactly those 30 quadratics."""
    f = P([1])
    for k in range(1, 31):
        f = f * P([k, 0, 1])
    assert factor_uni(f) == (Q(1), [(P([k, 0, 1]), 1) for k in range(1, 31)])


def _fraction_yun(f):
    """Reference: Yun's algorithm on monic Fraction polynomials, with
    Euclid's gcd and schoolbook division."""
    f = f.monic()
    a = _euclid_gcd(f, _derivative(f))
    b, c = _ref_divmod(f, a)[0], _ref_divmod(_derivative(f), a)[0]
    out, i = [], 1
    while b.degree > 0:
        d = c - _derivative(b)
        a = _euclid_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b, c, i = _ref_divmod(b, a)[0], _ref_divmod(d, a)[0], i + 1
    return out


def test_yun_on_integers_matches_the_fraction_reference():
    """squarefree_decomposition and factor_uni keep one integer image from
    start to finish. On seeded products of known irreducibles with rational
    content, and on inputs whose derivative or cofactors carry content
    (c*t^n, (2t+2)^k, and (3^2048*t)^100, whose derivative is 100*t^99 on
    the primitive image), Yun's parts equal the Fraction reference's and the
    construction's, and factor_uni returns the construction."""
    rng = random.Random(1212)
    t, t1 = P([0, 1]), P([1, 1])
    cases = [(P([0] * n + [c]), {t: n}) for n, c in ((1, 5), (7, Q(-3, 4)), (12, 6))]
    cases += [(P([2, 2]) ** k, {t1: k}) for k in (2, 5, 9)]
    cases += [(P([0, 3**2048]) ** 100, {t: 100}), (P([6, 6]) ** 3 * t**4, {t1: 3, t: 4})]
    for _ in range(150):
        expected = {}
        for _ in range(rng.randint(1, 4)):
            q = rng.choice((_rand_quadratic, _rand_eisenstein, lambda r: P(
                [Q(r.randint(-6, 6), r.choice([1, 2, 3])), 1])))(rng)
            expected[q] = rng.randint(1, 4)
        f = P([Q(rng.choice([-6, -1, 2, 9]), rng.choice([1, 4, 15]))])
        for q, e in expected.items():
            f = f * q ** e
        cases.append((f, expected))
    for f, expected in cases:
        parts = {}
        for q, e in expected.items():
            parts[e] = parts.get(e, P([1])) * q
        assert squarefree_decomposition(f) == _fraction_yun(f) == [
            (parts[e], e) for e in sorted(parts)]
        assert factor_uni(f) == (f.leading, sorted(expected.items(), key=lambda t: t[0].key()))


def test_inexact_integer_division_raises():
    """The exact divisions of the integer kernels check their remainder and
    their multiplier, so no answer rests on an assert that python -O drops:
    2t+2 does not divide t^2+1, and divides t+1 only over Q."""
    for a, b in (([1, 0, 1], [2, 2]), ([1, 1], [2, 2])):
        with pytest.raises(ValueError):
            polynomials._zexact(a, b)


def _ref_primitive(p):
    """The primitive integer multiple of p with a positive leading
    coefficient, [] for p = 0."""
    ints = list(p.ints)
    if not ints:
        return []
    c = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [v // c for v in ints]


def _gcd_kernel_cases():
    """Seeded integer pairs and Yun inputs: coprime pairs, shared factors
    with multiplicity, content and negative leading coefficients, heights up
    to 7^40 (coefficients of the products far above it), and zero and
    constant arguments."""
    rng = random.Random(3030)

    def rand_ints(deg, height):
        return ([rng.randint(-height, height) for _ in range(deg)]
                + [rng.choice((-1, 1)) * rng.randint(1, height)])

    pairs = []
    for k in range(240):
        height = (3, 2**12, 2**40, 7**40)[k % 4]
        a, b = (P(rand_ints(rng.randint(0, 6), height)) for _ in range(2))
        if k % 3:   # a shared factor, each side with its own multiplicity
            c = P(rand_ints(rng.randint(1, 3), height))
            a, b = a * c ** rng.randint(1, 3), b * c ** rng.randint(1, 3)
        if k % 3 == 2:   # content, and a negative leading coefficient
            a, b = a.scale(-rng.randint(2, 10**6)), b.scale(rng.randint(2, 99))
        pairs.append((list(a.ints), list(b.ints)))
    pairs += [([], []), ([], [5]), ([-3], []), ([4], [6]), ([0, 2], []),
              ([], [-6, 0, 3]), ([-2], [1, 1]), ([7**40, -(7**41)], [3]),
              ([7**40, 7**40], [-(7**40), 0, 7**40])]
    yun = [[0, 1], [0, 0, 0, 1], [1, 2, 1], _ref_primitive(P([7**40, 1]) ** 5)]
    for k in range(90):
        height = (3, 2**12, 2**40, 7**40)[k % 4]
        f = P([rng.choice((-1, 1)) * rng.randint(1, 10**6)])
        for _ in range(rng.randint(1, 3)):
            f = f * P(rand_ints(rng.randint(1, 3), height)) ** rng.randint(1, 4)
        if f.degree > 0:
            yun.append(_ref_primitive(f))
    return pairs, yun


def _check_gcd_kernels(pairs, yun):
    """_zgcd, its cofactors, gcd_uni and _zyun against Euclid's algorithm
    and Yun's over Q."""
    for a, b in pairs:
        want = _euclid_gcd(P(a), P(b))
        assert polynomials._zgcd(a, b) == _ref_primitive(want)
        assert gcd_uni(P(a), P(b)) == gcd_uni(P(b), P(a)) == want
        den = len(a) + 2 * len(b) + 1
        assert gcd_uni(P(a).scale(Q(1, den)), P(b).scale(Q(-den, 7))) == want
        if a or b:
            g, ca, cb = polynomials._zgcd_cofactors(a, b)
            assert g == _ref_primitive(want)
            assert (P(g) * P(ca), P(g) * P(cb)) == (P(a), P(b))
    for f in yun:
        got = polynomials._zyun(f)
        assert all(a == _ref_primitive(P(a)) for a, _ in got)
        assert [(P(a).monic(), i) for a, i in got] == _fraction_yun(P(f))


def test_gcd_by_evaluation_matches_euclid(monkeypatch):
    """Every gcd read from integer values divides both sides and is the one
    Euclid's algorithm finds, at a point no smaller than
    2 * min(|a|_inf, |b|_inf) + 2, the bound its certificate needs."""
    accepted, heuristic = [], polynomials._zheu

    def checked(a, b, xi):
        found = heuristic(a, b, xi)
        if found:
            assert xi >= 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
            accepted.append(xi)
        return found

    monkeypatch.setattr(polynomials, "_zheu", checked)
    _check_gcd_kernels(*_gcd_kernel_cases())
    assert len(accepted) > 1000
    # at 6, the bound, gcd(a(6), b(6)) = 4 reads as t - 2, which divides
    # 2 - t but not 2 - t + t^2 - t^3 + t^4: refused, on either side
    a, b = [2, -1], [2, -1, 1, -1, 1]
    assert heuristic(a, b, 6) is heuristic(b, a, 6) is None
    assert polynomials._zgcd_cofactors(a, b) == ([1], a, b)


def test_gcd_fallback_gives_the_same_answers(monkeypatch):
    """With no evaluation point accepted, the remainder sequence and two
    exact divisions give every answer, and the same ones."""
    fallbacks = []
    prs = polynomials._zprs
    monkeypatch.setattr(polynomials, "_zheu", lambda a, b, xi: None)
    monkeypatch.setattr(polynomials, "_zprs",
                        lambda a, b: fallbacks.append(1) or prs(a, b))
    _check_gcd_kernels(*_gcd_kernel_cases())
    assert len(fallbacks) > 1000


def test_powers_match_repeated_multiplication():
    """Square-and-multiply powers, the zero polynomial included (0^0 = 1),
    of constants and of polynomials with and without denominators; a
    univariate power is canonical, with the hash of the product."""
    x, y = BiPoly.var_x(), BiPoly.var_y()
    cases = [(base, P([1])) for base in
             (P([]), P([1]), P([-1]), P([Q(-2, 3)]), P([7]), P([0, 1]),
              P([Q(-1, 2), 0, 3]), P([2, 1]), P([Q(2, 3), Q(1, 5)]),
              P([0, 0, Q(-1, 6)]))]
    cases += [(base, BiPoly.const(1)) for base in
              (BiPoly.make({}), x * y - BiPoly.const(Q(1, 3)), x + y * y)]
    for base, acc in cases:
        for n in range(10):
            got = base ** n
            assert got == acc and hash(got) == hash(acc)
            if isinstance(got, UniPoly):
                assert _is_canonical(got)
            acc = acc * base



def _ref_mod_rem(a, f, p):
    """Remainder of a by f over F_p, one leading term at a time."""
    a = [c % p for c in a]
    inv = pow(f[-1], -1, p)
    while len(a) >= len(f):
        c, shift = a[-1] * inv % p, len(a) - len(f)
        for j, y in enumerate(f):
            a[shift + j] = (a[shift + j] - c * y) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_mod_mul(a, b, p):
    """Schoolbook product over F_p, reduced term by term."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def test_modular_products_and_powers_match_plain_references():
    """mod_mul and mod_pow, on unreduced and empty inputs, against the
    schoolbook product mod p and q such products mod f, q = 0 included."""
    rng = random.Random(29)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 101, 65537, 2**61 - 1))
        a, b = ([rng.randrange(-p, 3 * p) for _ in range(rng.randint(0, 6))]
                for _ in range(2))
        assert modular.mod_mul(a, b, p) == _ref_mod_mul(a, b, p)
        f = ([rng.randrange(p) for _ in range(rng.randint(1, 5))]
             + [rng.randrange(1, p)])
        q, want = rng.randrange(12), [1]
        for _ in range(q):
            want = _ref_mod_rem(_ref_mod_mul(want, a, p), f, p)
        assert modular.mod_pow(a, q, f, p) == want


def test_mod_divmod_returns_both_results_reduced_and_trimmed():
    """On unreduced dividends, shorter than the divisor or not, quot and rem
    come reduced mod p, without trailing zeros, with a = quot*b + rem."""
    assert modular.mod_divmod([9, 0], [1, 2, 1], 7) == ([], [2])
    assert modular.mod_divmod([9, 1, 1], [1, 1], 7) == ([0, 1], [2])
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 101, 65537))
        a = [rng.randrange(-p, 3 * p) for _ in range(rng.randint(0, 7))]
        b = ([rng.randrange(p) for _ in range(rng.randint(0, 4))]
             + [rng.randrange(1, p)])
        quot, rem = modular.mod_divmod(a, b, p)
        for r in (quot, rem):
            assert all(0 <= c < p for c in r) and (not r or r[-1])
        assert rem == _ref_mod_rem(a, b, p)
        assert modular.mod_sub(modular.mod_sub(a, rem, p),
                               _ref_mod_mul(quot, b, p), p) == []


def test_bipoly_arithmetic():
    x, y = BiPoly.var_x(), BiPoly.var_y()
    f = x * y - BiPoly.const(2)
    g = x + y
    assert (f + g) - g == f
    assert f * g == g * f
    assert (f * g).deg_x == 2 and (f * g).deg_y == 2
    assert BiPoly.from_uni(P([1, 1]), "x") == x + BiPoly.const(1)


def _bipoly_schoolbook(f, g):
    """The term-by-term Fraction product, zero terms dropped."""
    d = {}
    for (i1, j1), c1 in f.terms:
        for (i2, j2), c2 in g.terms:
            k = (i1 + i2, j1 + j2)
            d[k] = d.get(k, Q(0)) + c1 * c2
    return BiPoly.make(d)


def test_bipoly_products_match_the_fraction_schoolbook():
    """Products on integer images equal the Fraction term loop, term for
    term, with cancelling terms, constants and zero included."""
    rng = random.Random(4127)

    def r():
        return Q(rng.randint(-10**rng.randint(1, 20), 10**rng.randint(1, 20)),
                 rng.choice([1, 2, 3, 35, 10**rng.randint(1, 12)]))

    x, y = BiPoly.var_x(), BiPoly.var_y()
    polys = [BiPoly.make({}), BiPoly.const(1), BiPoly.const(Q(-2, 3)), x + y, x - y,
             x * x + x * y + y * y]
    for _ in range(60):
        polys.append(BiPoly.make({(rng.randint(0, 4), rng.randint(0, 4)): r()
                                  for _ in range(rng.randint(1, 7))}))
    for f in polys:
        for g in rng.sample(polys, 10) + [f]:
            got, want = f * g, _bipoly_schoolbook(f, g)
            assert got == want and hash(got) == hash(want), (f, g)
            assert all(type(c) is Q and c for _, c in got.terms)


def test_eval_y_ratfunc_matches_the_sum_of_powers():
    """The integer Horner evaluation equals the reference
    sum of c_j * num^j * den^(deg_y - j), zero numerators and zero
    polynomials included."""
    rng = random.Random(15)

    def r():
        return Q(rng.randint(-4, 4), rng.choice([1, 2, 3, 7]))

    for _ in range(400):
        g = BiPoly.make({(rng.randint(0, 3), rng.randint(0, 4)): r()
                         for _ in range(rng.randint(0, 6))})
        num = P([r() for _ in range(rng.randint(0, 4))])
        den = P([r() for _ in range(rng.randint(0, 3))] + [rng.choice([1, -2, 3])])
        dy = g.deg_y
        expected = P([])
        for j, cj in enumerate(g.y_coefficients()):
            expected = expected + cj * num**j * den ** (dy - j)
        assert g.eval_y_ratfunc(num, den) == expected, (g, num, den)


def test_bipoly_evaluate_matches_the_fraction_sum():
    """The integer Horner evaluation equals the sum of c * a^i * b^j, at
    points with zero, negative and non-integer coordinates, the zero
    polynomial and constants included."""
    rng = random.Random(4128)

    def r():
        return Q(rng.randint(-10**rng.randint(1, 12), 10**rng.randint(1, 12)),
                 rng.choice([1, 2, 3, 35, 10**rng.randint(1, 8)]))

    points = [Q(0), Q(1), Q(-1), Q(3), Q(-7), Q(1, 2), Q(-5, 3), Q(22, 7)]
    polys = [BiPoly.make({}), BiPoly.const(Q(-2, 3))]
    for _ in range(600):
        polys.append(BiPoly.make({(rng.randint(0, 5), rng.randint(0, 5)): r()
                                  for _ in range(rng.randint(0, 8))}))
    assert sum(g.is_zero for g in polys) >= 2
    for g in polys:
        for a, b in [(rng.choice(points), rng.choice(points)) for _ in range(3)] \
                + [(Q(0), Q(0)), (r(), r())]:
            want = sum((c * a**i * b**j for (i, j), c in g.terms), Q(0))
            got = g.evaluate(a, b)
            assert got == want and type(got) is Q, (g, a, b)
    assert BiPoly.make({(2, 1): 3, (0, 0): -1}).evaluate(2, -1) == -13


def test_bipoly_degrees_match_a_scan_of_the_terms():
    """deg_x reads the last term, the terms being sorted by (i, j); deg_x
    and deg_y equal the largest exponents over all terms (-1 for 0), for
    polynomials from every constructor and operation."""
    rng = random.Random(6161)
    polys = [BiPoly.make({}), BiPoly.var_x(), BiPoly.var_y(), BiPoly.const(3),
             BiPoly.from_uni(P([1, 0, 2]), "x"), BiPoly.from_uni(P([1, 0, 2]), "y")]
    for _ in range(120):
        f, g = (BiPoly.make({(rng.randint(0, 5), rng.randint(0, 5)):
                             Q(rng.randint(-9, 9), rng.randint(1, 3))
                             for _ in range(rng.randint(0, 6))}) for _ in range(2))
        polys += [f, g, f + g, f - g, f * g, -f, f.swap_xy(), f.partial_x(),
                  f.partial_y(), f.invert_x(), f.invert_y(), f.primitive_int()[1]]
    for p in polys:
        assert p.deg_x == max([i for (i, _), _ in p.iterms], default=-1)
        assert p.deg_y == max([j for (_, j), _ in p.iterms], default=-1)


def test_bipoly_make_drops_zeros_and_sorts():
    """make converts each coefficient of the dict to a Fraction, drops the
    zero ones and sorts the terms by exponent."""
    rng = random.Random(4129)
    for _ in range(300):
        d = {(rng.randint(0, 4), rng.randint(0, 4)):
             rng.choice([0, 0, 1, -3, Q(2, 5), Q(0), Q(-7, 2)])
             for _ in range(rng.randint(0, 8))}
        got = BiPoly.make(d)
        assert got.terms == tuple(sorted((k, Q(c)) for k, c in d.items() if c))
        assert all(type(c) is Q and c for _, c in got.terms)
    assert BiPoly.make({(1, 1): 0, (0, 0): Q(0)}).is_zero


@pytest.mark.parametrize("terms", [{(0, 0): 0.0}, {(1, 0): 1.5},
                                   {(1, 1): 2, (0, 0): 0.0}])
def test_bipoly_make_refuses_a_float(terms):
    """A float is refused, even one equal to zero: each coefficient is
    converted before it is tested for zero."""
    with pytest.raises(TypeError):
        BiPoly.make(terms)


def _pseudo_divmod(g, h):
    """Pseudo-division in y, the reference: lc_y(h)^k * g = q*h + r with
    deg_y r < deg_y h."""
    dh = h.deg_y
    lc = BiPoly.from_uni(h.y_coefficients()[-1], "x")
    q, r, k = BiPoly.make({}), g, 0
    while r.deg_y >= dh and not r.is_zero:
        rc = BiPoly.from_uni(r.y_coefficients()[-1], "x")
        shift = BiPoly.make({(0, r.deg_y - dh): 1})
        q = q * lc + rc * shift
        r = r * lc - rc * shift * h
        k += 1
    return q, r, k


def _reference_exact_div(g, h):
    """g / h by pseudo-division, then division of q by lc_y(h)^k."""
    q, r, k = _pseudo_divmod(g, h)
    if not r.is_zero:
        return None
    d = h.y_coefficients()[-1] ** k
    cols = [col.divmod(d) for col in q.y_coefficients()]
    if any(not rem.is_zero for _, rem in cols):
        return None
    return BiPoly.make({(i, j): c for j, (col, _) in enumerate(cols)
                        for i, c in enumerate(col.coeffs)})


def test_bipoly_exact_division_matches_pseudo_division():
    """Column-wise exact division gives p*q / q = p, and None wherever
    pseudo-division leaves a remainder or lc_y^k does not divide out."""
    rng = random.Random(14)
    x, y = BiPoly.var_x(), BiPoly.var_y()

    def rand_bipoly(dx, dy):
        return BiPoly.make({(rng.randint(0, dx), rng.randint(0, dy)):
                            Q(rng.randint(-6, 6), rng.randint(1, 3))
                            for _ in range(rng.randint(1, 5))})

    # pseudo-division leaves no remainder, but x*y does not divide y
    assert _pseudo_divmod(y, x * y)[1].is_zero
    assert bipoly_exact_div(y, x * y) is None
    inexact = 0
    for _ in range(150):
        p, q = rand_bipoly(3, 2), rand_bipoly(2, 2)
        if q.is_zero:
            continue
        assert bipoly_exact_div(p * q, q) == p
        g = p * q + rand_bipoly(2, 2) if rng.random() < 0.5 else rand_bipoly(4, 3)
        expected = _reference_exact_div(g, q)
        assert bipoly_exact_div(g, q) == expected
        inexact += expected is None
    assert inexact > 50


def test_bipoly_str():
    x, y = BiPoly.var_x(), BiPoly.var_y()
    assert bipoly_str(x - y) == "x-y"
    assert bipoly_str(x * y + BiPoly.const(Q(1, 2))) == "x*y+1/2"
    assert bipoly_str(BiPoly.const(0)) == "0"


def _schoolbook(a, b):
    """The Fraction product of two coefficient lists, trailing zeros cut."""
    out = [Q(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _product_corpus(rng):
    polys = [P([]), P([1]), P([-1]), P([Q(-7, 3)]), P([0, 1]), P([0, 0, Q(-1, 2)]),
             P([10**40 + 1, -3**50, Q(2**61 - 1, 10**12)]),
             P([Q(1, 6), Q(-5, 4), Q(7, 10), -1]), P([Q(3, 7), 0, 0, Q(-11, 9)])]
    for _ in range(40):
        deg = rng.randint(0, 6)
        cs = [Q(rng.randint(-10**rng.randint(1, 25), 10**rng.randint(1, 25)),
                rng.choice([1, 2, 3, 5, 12, 35, 10**rng.randint(1, 15)]))
              for _ in range(deg)]
        cs.append(Q(rng.choice([-1, 1]) * rng.randint(1, 10**rng.randint(1, 20)),
                    rng.randint(1, 99)))
        polys.append(P(cs))
    return polys


def _is_canonical(p):
    return all(type(c) is Q for c in p.coeffs) and (not p.coeffs or p.coeffs[-1] != 0)


def test_products_match_the_fraction_schoolbook():
    rng = random.Random(4099)
    polys = _product_corpus(rng)
    for a in polys:
        for b in rng.sample(polys, 12) + [P([]), P([1]), a]:
            got, want = a * b, P(_schoolbook(list(a.coeffs), list(b.coeffs)))
            assert _is_canonical(got)
            assert got == want and hash(got) == hash(want)
        n = rng.randint(0, 4)
        want = [Q(1)]
        for _ in range(n):
            want = _schoolbook(want, list(a.coeffs))
        got = a**n
        assert _is_canonical(got) and got == P(want) and hash(got) == hash(P(want))


def test_ratfunc_arithmetic_matches_the_fraction_schoolbook():
    from tamesym import RatFunc
    rng = random.Random(4111)
    polys = _product_corpus(rng)
    nonzero = [p for p in polys if not p.is_zero]

    def rand_rf():
        return RatFunc.make(rng.choice(polys), rng.choice(nonzero))

    def via_schoolbook(num, den):
        return RatFunc.make(P(num), P(den))

    for _ in range(120):
        f, g = rand_rf(), rand_rf()
        fn, fd, gn, gd = (list(p.coeffs) for p in (f.num, f.den, g.num, g.den))
        den = _schoolbook(fd, gd)
        cross = [_schoolbook(fn, gd), _schoolbook(gn, fd)]
        width = max(len(cross[0]), len(cross[1]))
        cross = [c + [Q(0)] * (width - len(c)) for c in cross]
        wants = {"+": via_schoolbook([x + y for x, y in zip(*cross)], den),
                 "-": via_schoolbook([x - y for x, y in zip(*cross)], den),
                 "*": via_schoolbook(_schoolbook(fn, gn), den)}
        gots = {"+": f + g, "-": f - g, "*": f * g}
        if not g.is_zero:
            wants["/"] = via_schoolbook(_schoolbook(fn, gd), _schoolbook(fd, gn))
            gots["/"] = f / g
        for op, want in wants.items():
            got = gots[op]
            assert got == want and hash(got) == hash(want), op
            assert _is_canonical(got.num) and _is_canonical(got.den), op


def _canonical_equal(got, want):
    return _is_canonical(got) and got == want and hash(got) == hash(want)


def test_sums_that_cancel_leading_terms_are_trimmed():
    """A sum or difference whose top coefficients cancel drops them, down
    to the zero polynomial UniPoly.make([]); no trailing zero is kept."""
    a = P([1, Q(1, 2), 3, -2])
    cases = [(a + P([0, 0, -3, 2]), P([1, Q(1, 2)])),
             (a - P([0, Q(1, 2), 3, -2]), P([1])),
             (a + P([-1, Q(-1, 2), -3, 2]), UniPoly.make([])),
             (a - a, UniPoly.make([])),
             (a + -a, UniPoly.make([])),
             (P([Q(1, 3), Q(2, 3)]) + P([Q(2, 3), Q(-2, 3)]), P([1])),
             (P([Q(1, 3), Q(2, 3)]) - P([Q(1, 3), Q(2, 3)]), UniPoly.make([])),
             (P([]) + P([]), UniPoly.make([])),
             (P([]) - P([]), UniPoly.make([])),
             (P([]) - a, -a),
             (a + P([]), a),
             (P([1]) + P([0, 0, 0, Q(5, 7)]), P([1, 0, 0, Q(5, 7)]))]
    for got, want in cases:
        assert _canonical_equal(got, want), (got, want)
    assert (a - a).coeffs == () and (a - a).degree == -1


def test_products_with_and_without_a_denominator():
    """A product whose combined denominator is 1 and one whose is not both
    equal the schoolbook product, with reduced Fraction coefficients."""
    cases = [(P([1, 2]), P([-3, 1])),              # integers: denominator 1
             (P([Q(1, 2), 1]), P([2, 4])),         # denominator 2, cancels
             (P([Q(1, 2)]), P([Q(1, 3), 1])),      # denominator 6, stays
             (P([Q(2, 3), Q(-1, 4)]), P([Q(3, 2), Q(4, 5)])),
             (P([5]), P([Q(1, 5)])),               # a constant product 1
             (P([Q(1, 2), 1]), P([]))]             # zero
    for a, b in cases:
        want = P(_schoolbook(list(a.coeffs), list(b.coeffs)))
        assert _canonical_equal(a * b, want) and _canonical_equal(b * a, want)
    assert (P([Q(1, 2), 1]) * P([2, 4])).coeffs == (Q(1), Q(4), Q(4))


def _stored_canonical(p):
    """The stored form: int coefficients over an int den > 0 coprime to
    their content, with no trailing zero (UniPoly) or no zero term and
    strictly increasing exponents (BiPoly)."""
    if isinstance(p, UniPoly):
        vs, shape = list(p.ints), not p.ints or p.ints[-1] != 0
    else:
        keys, vs = [k for k, _ in p.iterms], [v for _, v in p.iterms]
        shape = all(vs) and all(a < b for a, b in zip(keys, keys[1:]))
    return (shape and type(p.den) is int and p.den > 0
            and all(type(v) is int for v in vs) and math.gcd(p.den, *vs) == 1)


def _same_value(got, want):
    """got equals want, both stored canonically, with one hash and the
    Fraction tuple of want."""
    fractions = (lambda p: p.coeffs) if isinstance(want, UniPoly) else (lambda p: p.terms)
    return (_stored_canonical(got) and _stored_canonical(want) and got == want
            and hash(got) == hash(want) and fractions(got) == fractions(want))


def _rand_frac(rng):
    return Q(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 6, 35, 10**rng.randint(1, 9)]))


def _built_by_arithmetic(p):
    """p rebuilt from constants and t by sums and products alone."""
    t, acc = P([0, 1]), P([])
    for c in reversed(p.coeffs):
        acc = acc * t + P([c])
    return acc


def _bi_built_by_arithmetic(g):
    """g rebuilt from constants, x and y by products, powers and sums."""
    x, y, acc = BiPoly.var_x(), BiPoly.var_y(), BiPoly.make({})
    for (i, j), c in g.terms:
        acc = acc + (x**i * y**j).scale(c)
    return acc


def _fraction_partial(g, var):
    d = {}
    for (i, j), c in g.terms:
        e = i if var == "x" else j
        if e:
            k = (i - 1, j) if var == "x" else (i, j - 1)
            d[k] = c * e
    return BiPoly.make(d)


def test_stored_form_is_canonical_and_every_operation_matches_the_fraction_references():
    """Each value built by make on Fractions and again by arithmetic has one
    stored form and one hash, and every UniPoly and BiPoly operation equals
    its Fraction reference in this file, in value, stored form, hash and
    Fraction tuple."""
    rng = random.Random(2601)
    unis = _product_corpus(rng)
    unis += [P([_rand_frac(rng) for _ in range(rng.randint(0, 6))]) for _ in range(40)]
    for a in unis:
        assert _same_value(_built_by_arithmetic(a), a), a
        cs = [_rand_frac(rng) for _ in range(rng.randint(0, 5))] + [Q(0)] * rng.randint(0, 2)
        while cs and not cs[-1]:
            cs.pop()
        assert P(cs).coeffs == tuple(cs) and _stored_canonical(P(cs))
    for _ in range(150):
        a, b = rng.choice(unis), rng.choice(unis)
        c = _rand_frac(rng)
        assert _same_value(a + b, P([x + y for x, y in zip(
            list(a.coeffs) + [Q(0)] * (b.degree - a.degree),
            list(b.coeffs) + [Q(0)] * (a.degree - b.degree))]))
        assert _same_value(a - b, a + -b) and _same_value(-a, P([-x for x in a.coeffs]))
        assert _same_value(a * b, P(_schoolbook(list(a.coeffs), list(b.coeffs))))
        assert _same_value(a.scale(c), P([c * x for x in a.coeffs]))
        n = rng.randint(0, 3)
        want = [Q(1)]
        for _ in range(n):
            want = _schoolbook(want, list(a.coeffs))
        assert _same_value(a ** n, P(want))
        if not a.is_zero:
            assert _same_value(a.monic(), P([x / a.leading for x in a.coeffs]))
            assert a.leading == a.coeffs[-1] and type(a.leading) is Q
        if not b.is_zero:
            q, r = a.divmod(b)
            wq, wr = _ref_divmod(a, b)
            assert _same_value(q, wq) and _same_value(r, wr)
        assert _same_value(gcd_uni(a, b), _euclid_gcd(a, b))
        x = _rand_frac(rng)
        assert a.evaluate(x) == sum((v * x**i for i, v in enumerate(a.coeffs)), Q(0))
        assert [a.coeff(i) for i in range(a.degree + 2)] == list(a.coeffs) + [Q(0)]

    def rand_bi():
        return BiPoly.make({(rng.randint(0, 3), rng.randint(0, 3)): _rand_frac(rng)
                            for _ in range(rng.randint(0, 6))})

    bis = [rand_bi() for _ in range(60)]
    for g in bis:
        assert _same_value(_bi_built_by_arithmetic(g), g), g
        d = {(rng.randint(0, 3), rng.randint(0, 3)): _rand_frac(rng) for _ in range(5)}
        assert BiPoly.make(d).terms == tuple(sorted((k, c) for k, c in d.items() if c))
    for _ in range(150):
        f, g = rng.choice(bis), rng.choice(bis)
        c = _rand_frac(rng)
        sums = dict(f.terms)
        for k, v in g.terms:
            sums[k] = sums.get(k, Q(0)) + v
        assert _same_value(f + g, BiPoly.make(sums))
        assert _same_value(f - g, f + -g)
        assert _same_value(-f, BiPoly.make({k: -v for k, v in f.terms}))
        assert _same_value(f * g, _bipoly_schoolbook(f, g))
        assert _same_value(f.scale(c), BiPoly.make({k: c * v for k, v in f.terms}))
        assert _same_value(f.partial_x(), _fraction_partial(f, "x"))
        assert _same_value(f.partial_y(), _fraction_partial(f, "y"))
        assert _same_value(f.swap_xy(), BiPoly.make({(j, i): v for (i, j), v in f.terms}))
        dx, dy = f.deg_x, f.deg_y
        assert _same_value(f.invert_x(), BiPoly.make({(dx - i, j): v for (i, j), v in f.terms}))
        assert _same_value(f.invert_y(), BiPoly.make({(i, dy - j): v for (i, j), v in f.terms}))
        content, prim = f.primitive_int()
        assert _same_value(prim.scale(content) if content else prim, f)
        assert prim.den == 1 and (f.is_zero or prim.iterms[-1][1] > 0)
        cols = f.y_coefficients()
        assert all(_stored_canonical(col) for col in cols)
        assert _same_value(sum((BiPoly.from_uni(col, "x") * BiPoly.var_y() ** j
                                for j, col in enumerate(cols)), BiPoly.make({})), f)
        u = rng.choice(unis)
        assert _same_value(BiPoly.from_uni(u, "y"),
                           BiPoly.make({(0, i): v for i, v in enumerate(u.coeffs)}))
        num, den = rng.choice(unis), rng.choice([u for u in unis if not u.is_zero])
        want = P([])
        for j, cj in enumerate(cols):
            want = want + cj * num**j * den ** (dy - j)
        assert _same_value(f.eval_y_ratfunc(num, den), want)
        assert _same_value(polynomials.grid_at_y(f.int_columns()[1], num, den),
                           want.scale(f.den))
        a, b = _rand_frac(rng), _rand_frac(rng)
        assert f.evaluate(a, b) == sum((v * a**i * b**j for (i, j), v in f.terms), Q(0))
        if not g.is_zero:
            assert bipoly_exact_div(f * g, g) == f
            got, want = bipoly_exact_div(f, g), _reference_exact_div(f, g)
            assert got == want and (got is None or _same_value(got, want))
