"""Exact univariate and bivariate polynomial arithmetic."""

import math
import random
from fractions import Fraction as Q

import pytest

from tamesym import Inconclusive, UniPoly, BiPoly, poly_str, bipoly_str
from tamesym import polynomials
from tamesym.integers import divisors
from tamesym.polynomials import (_SUBSET_BUDGET, bipoly_exact_div,
                                 factor_uni, gcd_uni, irreducible_check_uni,
                                 multiplicity_at, multiplicity_of_factor,
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


def test_multiplicities():
    f = P([-1, 1]) ** 2 * P([-2, 1])
    assert multiplicity_at(f, 1) == 2
    assert multiplicity_at(f, 2) == 1
    assert multiplicity_at(f, 3) == 0
    assert multiplicity_of_factor(f, P([-1, 1])) == 2


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
    ints = polynomials._primitive(f.coeffs)[2]
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


def test_powers_match_repeated_multiplication():
    """Square-and-multiply powers, the zero polynomial included (0^0 = 1)."""
    x, y = BiPoly.var_x(), BiPoly.var_y()
    cases = [(base, P([1])) for base in (P([]), P([1]), P([Q(-1, 2), 0, 3]), P([2, 1]))]
    cases += [(base, BiPoly.const(1)) for base in
              (BiPoly(()), x * y - BiPoly.const(Q(1, 3)), x + y * y)]
    for base, acc in cases:
        for n in range(10):
            assert base ** n == acc
            acc = acc * base


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
    return BiPoly(tuple(sorted((k, c) for k, c in d.items() if c)))


def test_bipoly_products_match_the_fraction_schoolbook():
    """Products on integer images equal the Fraction term loop, term for
    term, with cancelling terms, constants and zero included."""
    rng = random.Random(4127)

    def r():
        return Q(rng.randint(-10**rng.randint(1, 20), 10**rng.randint(1, 20)),
                 rng.choice([1, 2, 3, 35, 10**rng.randint(1, 12)]))

    x, y = BiPoly.var_x(), BiPoly.var_y()
    polys = [BiPoly(()), BiPoly.const(1), BiPoly.const(Q(-2, 3)), x + y, x - y,
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


def _pseudo_divmod(g, h):
    """Pseudo-division in y, the reference: lc_y(h)^k * g = q*h + r with
    deg_y r < deg_y h."""
    dh = h.deg_y
    lc = BiPoly.from_uni(h.y_coefficients()[-1], "x")
    q, r, k = BiPoly(()), g, 0
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
    assert bipoly_str(x - y, "x", "y") == "x-y"
    assert bipoly_str(x * y + BiPoly.const(Q(1, 2)), "x", "y") == "x*y+1/2"
    assert bipoly_str(BiPoly.const(0), "x", "y") == "0"


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
