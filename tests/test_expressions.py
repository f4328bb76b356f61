"""Rational functions in one and two variables, kept in reduced form."""

import random
from fractions import Fraction as Q

import pytest

from tamesym import INF, BiFrac, BiPoly, RatFunc, UniPoly
from tamesym.expressions import ratfunc_str
from test_polynomials import _euclid_gcd, _ref_divmod, rand_wide

P = UniPoly.make


def test_ratfunc_normal_form_is_reduced_and_monic():
    f = RatFunc.make(P([-2, 1]) * P([-1, 1]), P([-1, 1]).scale(3))
    assert f.den == P([1])
    assert f.num == P([Q(-2, 3), Q(1, 3)])
    g = RatFunc.make(P([0, 2]), P([0, 0, 4]))  # 2t / 4t^2
    assert ratfunc_str(g, "t") == "(1/2)/(t)"


def _reference_make(num, den):
    """RatFunc.make's (num, den) as it was before make kept the gcd's
    cofactors: the monic gcd by Euclid's algorithm, both sides divided by it
    by schoolbook division, and the denominator then made monic, all on
    Fraction references."""
    if num.is_zero:
        return P([]), P([1])
    g = _euclid_gcd(num, den)
    num, den = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    return num.scale(1 / den.leading), den.monic()


def test_make_reduces_as_gcd_then_divide_did():
    """make divides num and den by their gcd through the cofactors that
    certify it; on seeded pairs with a shared factor of degree 0 to 4, up
    to its square, a constant side now and then and a zero numerator, it
    gives gcd-then-divide's reduced pair, in stored form and hash."""
    rng = random.Random(3401)
    for _ in range(300):
        shared = rand_wide(rng, rng.randint(0, 4)) ** rng.randint(1, 2)
        num = rand_wide(rng, rng.randint(0, 4)) * shared
        den = rand_wide(rng, rng.randint(0, 4)) * shared
        if rng.random() < 0.05:
            num = P([])
        got, want = RatFunc.make(num, den), RatFunc(*_reference_make(num, den))
        assert got == want and hash(got) == hash(want), (str(num), str(den))


def test_ratfunc_field_laws():
    rng = random.Random(91)
    for _ in range(30):
        def rand():
            num = P([rng.randint(-5, 5), rng.choice([1, 2])])
            den = P([rng.randint(-5, 5), 1])
            return RatFunc.make(num, den)
        a, b, c = rand(), rand(), rand()
        if a.is_zero or b.is_zero or c.is_zero:
            continue
        assert (a + b) * c == a * c + b * c
        assert a / b * b == a
        assert a ** -2 == RatFunc.const(1) / (a * a)


def test_constant_value():
    assert RatFunc.const(Q(5, 3)).constant_value() == Q(5, 3)
    assert RatFunc.var().constant_value() is None
    same = RatFunc.make(P([2, 2]), P([1, 1]))  # (2t+2)/(t+1)
    assert same.constant_value() == 2


def test_one_minus():
    t = RatFunc.var()
    assert t.one_minus() == RatFunc.make(P([1, -1]))
    f = RatFunc.make(P([-3]), P([0, 1]))  # -3/t
    # 1 - (-3/t) = (t+3)/t
    assert f.one_minus() == RatFunc.make(P([3, 1]), P([0, 1]))


def _rand_ratfunc(rng):
    num = [Q(rng.randint(-5, 5), rng.randint(1, 3))
           for _ in range(rng.randint(1, 4))]
    den = [Q(rng.randint(-5, 5), rng.randint(1, 3))
           for _ in range(rng.randint(0, 3))] + [rng.choice([1, 2, -3])]
    return RatFunc.make(P(num), P(den))


def test_one_minus_is_reduced_without_make():
    rng = random.Random(505)
    for _ in range(200):
        f = _rand_ratfunc(rng)
        if f.num == f.den:
            continue
        assert f.one_minus() == RatFunc.make(f.den - f.num, f.den)


def test_orders_and_evaluation():
    f = RatFunc.make(P([0, 0, 1]), P([-1, 1]))  # t^2/(t-1)
    assert f.order_at_infinity() == -1
    assert f.evaluate(2) == 4
    assert f.evaluate_projective(1) is INF
    assert f.evaluate_projective(Q(1, 2)) == Q(-1, 2)
    g = RatFunc.make(P([1, 2]), P([3, 1]))
    assert g.evaluate_at_infinity() == 2
    assert f.evaluate_at_infinity() is INF


def test_inf_is_a_singleton():
    from tamesym.expressions import _InfinityValue
    assert _InfinityValue() is INF
    assert repr(INF) == "inf"


def test_bifrac_operations():
    x = BiFrac.make(BiPoly.var_x())
    y = BiFrac.make(BiPoly.var_y())
    f = (x - y) / (x + y)
    # cross-multiplied equality avoids assuming a canonical form
    h = f * (x + y)
    assert h.num * (x - y).den == (x - y).num * h.den
    g = f ** -1
    assert (f * g - BiFrac.const(1)).is_zero
    assert ((x - y) - (x - y)).is_zero
    assert not (x * y).one_minus().is_zero
    # one text for both fraction types
    with pytest.raises(ZeroDivisionError, match="^division by the zero function$"):
        x / (x - x)
    with pytest.raises(ZeroDivisionError, match="^division by the zero function$"):
        RatFunc.var() / RatFunc.const(0)


def test_bifrac_powers():
    x = BiFrac.make(BiPoly.var_x())
    assert (x ** 3).num == BiPoly.make({(3, 0): 1})
    inv = x ** -2
    assert (inv * x * x - BiFrac.const(1)).is_zero


def test_closed_forms_are_what_make_returns():
    """Sums, products and powers of polynomials, and every power, skip the
    gcd; each equals the reduced fraction that make() builds."""
    rng = random.Random(733)
    for _ in range(200):
        f, g = _rand_ratfunc(rng), _rand_ratfunc(rng)
        if rng.random() < 0.5:
            f, g = RatFunc.make(f.num), RatFunc.make(g.num)
        cases = [(f + g, f.num * g.den + g.num * f.den, f.den * g.den),
                 (f - g, f.num * g.den - g.num * f.den, f.den * g.den),
                 (f * g, f.num * g.num, f.den * g.den)]
        for n in range(4):
            cases.append((f ** n, f.num ** n, f.den ** n))
            if n and not f.is_zero:
                cases.append((f ** -n, f.den ** n, f.num ** n))
        for got, num, den in cases:
            want = RatFunc.make(num, den)
            assert got == want and hash(got) == hash(want)
    one = BiPoly.const(1)
    for _ in range(50):
        a, b = (BiPoly.make({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                             for _ in range(3)}) for _ in range(2))
        f, g = BiFrac.make(a), BiFrac.make(b)
        assert f + g == BiFrac.make(a * one + b * one, one * one)
        assert f - g == BiFrac.make(a * one - b * one, one * one)
        assert f * g == BiFrac.make(a * b, one * one)
        # a constant denominator other than 1 is no polynomial
        two, three = BiPoly.const(2), BiPoly.const(3)
        assert BiFrac.make(a, two) + BiFrac.make(b, three) \
            == BiFrac.make(a * three + b * two, two * three)


def test_const_and_var_are_what_make_returns():
    """const(c) and var() are built reduced, with no gcd; each equals the
    value make() builds, with an equal hash, c = 0 included."""
    for c in (0, 1, -1, 12, Q(5, 3), Q(-7, 2), Q(0)):
        got, want = RatFunc.const(c), RatFunc.make(UniPoly.const(c))
        assert got == want and hash(got) == hash(want), c
        assert got.constant_value() == c
    assert RatFunc.const(0).is_zero and RatFunc.const(0).num == UniPoly.make([])
    got, want = RatFunc.var(), RatFunc.make(UniPoly.var())
    assert got == want and hash(got) == hash(want)


def test_powers_with_a_denominator_and_negative_exponents():
    """f^n for n in -5..5 equals |n| products of f or of 1/f, for
    polynomials, constants and fractions with a non-unit denominator; a
    negative power of zero is refused."""
    t = RatFunc.var()
    bases = [RatFunc.make(P([1, 2]), P([3, 1])),
             RatFunc.make(P([0, 1]), P([1, 0, 1])),
             RatFunc.make(P([Q(-1, 2), Q(3, 4)]), P([2, 0, 0, 5])),
             RatFunc.make(P([2, -1])), t, RatFunc.const(Q(-2, 3)),
             RatFunc.const(1)]
    one = RatFunc.const(1)
    for f in bases:
        for n in range(-5, 6):
            want = one
            for _ in range(abs(n)):
                want = want * f if n > 0 else want / f
            got = f ** n
            assert got == want and hash(got) == hash(want), (str(f), n)
            assert got.den.leading == 1
    assert RatFunc.const(0) ** 0 == one
    assert RatFunc.const(0) ** 3 == RatFunc.const(0)
    with pytest.raises(ZeroDivisionError):
        RatFunc.const(0) ** -1
