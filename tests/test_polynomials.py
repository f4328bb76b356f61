"""Exact univariate and bivariate polynomial arithmetic."""

import copy
import math
import pickle
import random
from fractions import Fraction as Q

import pytest

from tamesym import Inconclusive, UniPoly, BiPoly, poly_str, bipoly_str
from tamesym.polynomials import (_int_sqrt, _rootless_factors, factor_uni,
                                 gcd_uni, irreducible_check_uni,
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


def test_derivative_product_rule():
    rng = random.Random(13)
    for _ in range(25):
        a, b = rand_poly(rng, 4), rand_poly(rng, 4)
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
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


def test_irreducible_inconclusive_rather_than_guess():
    """The degree-8 minimal polynomial of sqrt2+sqrt3+sqrt5 factors modulo
    every prime, so modular degree patterns can never certify it. The
    checker must say so instead of returning either answer."""
    sd8 = P([576, 0, -960, 0, 352, 0, -40, 0, 1])
    with pytest.raises(Inconclusive):
        irreducible_check_uni(sd8)


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


def test_constant_and_linear_closed_forms():
    """Constants and linear polynomials factor to the answer known by
    construction, whatever the known atoms, and a nonzero constant has gcd 1
    with anything, as Euclid says."""
    rng = random.Random(17)
    known = (P([1, 0, 1]), P([-2, 0, 0, 1]))
    for _ in range(60):
        a1 = Q(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
        a0 = Q(rng.choice([0, 0, -4, 1, 9]), rng.choice([1, 3]))
        cases = ((P([a1]), []), (P([a0, a1]), [(P([a0 / a1, 1]), 1)]))
        for f, expected in cases:
            for kn in ((), known):
                c, parts = factor_uni(f, kn)
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
    """Quadratic pairs are found when the discriminant is beyond float
    precision (A = 10^17 + 1) or float range (B = 10^170)."""
    a = 10**17 + 1
    q1, q2 = P([1, a, 1]), P([3, 7 - a, 1])
    assert not irreducible_check_uni(q1 * q2)
    assert factor_uni(q1 * q2) == (1, [(q1, 1), (q2, 1)])
    b = 10**170
    q1, q2 = P([1, b, 1]), P([3, -b, 1])
    assert factor_uni(q1 * q2) == (1, [(q1, 1), (q2, 1)])


def test_non_monic_quartic_splits_into_quadratics():
    """A rootless quartic with leading coefficient a4 != 1 is split through
    its monic transform, and the quadratics come back monic over Q."""
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
    product of two distinct ones cannot be refuted without a factor, so the
    checker refuses, and with the factor supplied as known it splits."""
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
        with pytest.raises(Inconclusive) as err:
            irreducible_check_uni(g)
        assert str(err.value) == (
            f"cannot certify irreducibility of degree-{a + b} polynomial "
            f"{poly_str(g, 't')}: feasible proper factor degrees [{a}, {b}]")
        assert factor_uni(g, (eis[a],)) == (1, [(eis[a], 1), (eis[b], 1)])
        with pytest.raises(Inconclusive) as err:
            factor_uni(g.scale(5))
        assert str(err.value).startswith(
            f"cannot certify irreducibility of degree-{a + b} polynomial "
            f"{poly_str(g, 't')}: ")


def _factor_by_plain_trial_division(f, known):
    """Reference: factor_uni's loop over known factors with no integer tests,
    every candidate of fitting degree divided into the part."""
    if f.degree <= 1:
        return factor_uni(f)
    out = []
    for part, power in squarefree_decomposition(f):
        for root, _ in rational_roots(part):
            out.append((P([-root, 1]), power))
            part = part.exact_div(P([-root, 1]))
        for q in known:
            if q.degree <= 1 or part.degree < q.degree:
                continue
            quo, rem = part.divmod(q)
            if rem.is_zero:
                out.append((q, power))
                part = quo
        if part.degree > 0:
            out += [(q, power) for q in _rootless_factors(part)]
    out.sort(key=lambda t: t[0].key())
    return f.leading, out


def _outcome(factor, f, known):
    try:
        return factor(f, known)
    except Inconclusive as e:
        return "Inconclusive", str(e)


def _rand_eisenstein(rng):
    """A monic polynomial Eisenstein at a prime p: p divides every lower
    coefficient and p^2 does not divide the constant."""
    p, n = rng.choice([2, 3, 5]), rng.randint(2, 4)
    lower = [p * rng.choice([1, 2, 4, -1, -2]) for _ in range(n)]
    return P(lower + [1])


# certified irreducibles whose primitive images are +-1 at 0, 1 and -1, so
# every integer test passes against any part: divided into, never dividing
# unless they are a factor
PASS_ALL = (P([-1, 1, 1]), P([-1, -1, 1]), P([-1, -1, 0, 1]),
            P([-1, -1, 0, 0, 1]), P([-1, -2, 0, 0, 1, 1]))


def _filter_passes(q, part):
    return not any(d and v % d for d, v in zip(q.zvalues(), part.zvalues()))


def test_known_filter_keeps_every_answer_of_plain_trial_division():
    """Seeded products of Eisenstein and other certified irreducibles, with
    rational content, negative coefficients and rational roots, factored
    with shuffled known lists that mix true factors, candidates rejected by
    the integer tests and candidates that pass them yet do not divide."""
    assert all(irreducible_check_uni(q) for q in PASS_ALL)
    rng = random.Random(808)
    passed_not_dividing = rejected = hits = 0
    for _ in range(60):
        pool = [_rand_eisenstein(rng) for _ in range(4)]
        pool += [q for q in PASS_ALL if rng.random() < 0.5]
        factors = rng.sample(pool, rng.randint(1, 3))
        f = P([Q(rng.choice([-7, -3, 2, 5]), rng.choice([1, 3, 4]))])
        for q in factors:
            f = f * q ** rng.choice([1, 1, 2])
        if rng.random() < 0.5:
            f = f * P([Q(rng.randint(-5, 5), rng.choice([1, 2])), 1])
        known = tuple(rng.sample(pool, len(pool)))
        for q in known:
            if q.degree <= f.degree:
                fits = _filter_passes(q, f)
                divides = (f % q).is_zero
                assert fits or not divides
                hits += divides
                rejected += not fits
                passed_not_dividing += fits and not divides
        assert _outcome(factor_uni, f, known) == \
            _outcome(_factor_by_plain_trial_division, f, known)
    assert min(passed_not_dividing, rejected, hits) > 20


def test_known_filter_hit_path():
    """t^6+1 = (t^2+1)(t^4-t^2+1): the remembered t^2+1 passes the integer
    tests and divides, and the quartic cofactor is certified."""
    q, cofactor = P([1, 0, 1]), P([1, 0, -1, 0, 1])
    f = q * cofactor
    assert _filter_passes(q, f)
    expected = (1, [(q, 1), (cofactor, 1)])
    assert factor_uni(f, (q,)) == expected
    assert _factor_by_plain_trial_division(f, (q,)) == expected
    assert factor_uni(f.scale(Q(-3, 2)), (q,)) == (Q(-3, 2), expected[1])


def test_cached_zvalues_stay_out_of_eq_repr_and_pickle():
    f = P([Q(-3, 2), Q(1, 4), 0, Q(5, 6)])
    fresh = P(f.coeffs)
    assert f.zvalues() == (10, -18, -5, -31)   # P = 10t^3 + 3t - 18
    assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)
    for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert clone == f
        assert not hasattr(clone, "_prim")


def test_int_sqrt_is_exact():
    r = 10**20 + 12345  # r^2 > 2^106
    assert _int_sqrt(r * r) == r
    assert _int_sqrt(r * r + 1) is None
    assert _int_sqrt(10**400) == 10**200  # beyond float range
    assert _int_sqrt(-4) is None


def test_bipoly_arithmetic():
    x, y = BiPoly.var_x(), BiPoly.var_y()
    f = x * y - BiPoly.const(2)
    g = x + y
    assert (f + g) - g == f
    assert f * g == g * f
    assert (f * g).deg_x == 2 and (f * g).deg_y == 2
    assert BiPoly.from_uni(P([1, 1]), "x") == x + BiPoly.const(1)


def test_bipoly_str():
    x, y = BiPoly.var_x(), BiPoly.var_y()
    assert bipoly_str(x - y, "x", "y") == "x-y"
    assert bipoly_str(x * y + BiPoly.const(Q(1, 2)), "x", "y") == "x*y+1/2"
    assert bipoly_str(BiPoly.const(0), "x", "y") == "0"
