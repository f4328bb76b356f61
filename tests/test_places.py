"""Places, divisors, tame symbols, and the reciprocity sum."""

import random
from fractions import Fraction as Q

import pytest

from tamesym import (INFINITY, AtomRegistry, BiFrac, BiPoly, ExceptionalCurve,
                     FinRat, IrredPlace, MixedFields, NotAUnit, RatFunc,
                     UniPoly, Wedge, classify_atom_divisor, defining_bipoly,
                     mult_vec, one_minus, parse_place, parse_wedge,
                     tame_symbol, wedge_of, wedge_str, weil_sum)
from tamesym.places import (LineInf, chain_point, order_at, ratfunc_support,
                            solved_divisor, support)

P = UniPoly.make


def rf(num, den=(1,)):
    return RatFunc.make(P(num), P(den))


def lin(reg, root):
    return mult_vec(rf([-Q(root), 1]), reg)


def test_place_strings():
    assert str(FinRat(Q(3))) == "t=3"
    assert str(FinRat(Q(-1, 2))) == "t=-1/2"
    assert str(IrredPlace(P([1, 0, 1]))) == "t^2+1=0"
    assert str(INFINITY) == "t=inf"


def test_order_at_counts_zeros_and_poles():
    reg = AtomRegistry()
    f = mult_vec(rf([0, 1]) * rf([0, 1]) / rf([-1, 1]), reg)  # t^2/(t-1)
    assert order_at(f, FinRat(Q(0))) == 2
    assert order_at(f, FinRat(Q(1))) == -1
    assert order_at(f, FinRat(Q(5))) == 0
    assert order_at(f, INFINITY) == -1


def test_symbol_at_simple_zero():
    """At t=0 the slot t carries the uniformizer; the symbol keeps the
    values of the other slots at the place."""
    reg = AtomRegistry()
    w = wedge_of([lin(reg, 0), lin(reg, 2), lin(reg, 3)])
    got = tame_symbol(w, FinRat(Q(0)), reg)
    want = wedge_of([mult_vec(Q(-2), reg, "Q"), mult_vec(Q(-3), reg, "Q")])
    assert got == want
    assert wedge_str(got) == "w[2, 3]"


def test_symbol_away_from_support_is_zero():
    reg = AtomRegistry()
    w = wedge_of([lin(reg, 0), lin(reg, 2), lin(reg, 3)])
    assert tame_symbol(w, FinRat(Q(7)), reg).is_zero


def test_symbol_degree_one_gives_orders():
    reg = AtomRegistry()
    f = mult_vec(rf([0, 1]) ** 3 / rf([-1, 1]), reg)
    s = tame_symbol(wedge_of([f]), FinRat(Q(0)), reg)
    assert s.scalar_value() == 3
    s = tame_symbol(wedge_of([f]), FinRat(Q(1)), reg)
    assert s.scalar_value() == -1


def test_symbol_antisymmetry_in_slots():
    reg = AtomRegistry()
    a, b = lin(reg, 0), lin(reg, 2)
    v = FinRat(Q(0))
    s1 = tame_symbol(wedge_of([a, b]), v, reg)
    s2 = tame_symbol(wedge_of([b, a]), v, reg)
    assert s1 == s2.scale(-1) if hasattr(s1, "scale") else True
    from tamesym import wedge_scale
    assert s1 == wedge_scale(s2, -1)


def test_symbol_at_quadratic_place_needs_split_residues():
    """Orders at t^2-2=0 are fine, but unit residues there live in a
    quadratic extension, and the engine refuses to silently push them
    down to Q."""
    from tamesym import NonSplitResidue
    reg = AtomRegistry()
    place = IrredPlace(P([-2, 0, 1]))
    f = mult_vec(rf([-2, 0, 1]), reg)
    deg1 = tame_symbol(wedge_of([f]), place, reg)
    assert deg1.scalar_value() == 1
    g = mult_vec(rf([0, 1]), reg)
    with pytest.raises(NonSplitResidue):
        tame_symbol(wedge_of([f, g]), place, reg)


def test_value_at_a_quadratic_place_is_rational_when_it_can_be():
    """f has a rational value c at q=0 when num = c * den modulo q; only a
    value outside Q is refused."""
    from tamesym import INF, NonSplitResidue
    place = IrredPlace(P([1, 0, 1]))
    assert place.value(rf([-1], [0, 0, 1])) == 1      # -1/t^2 at t = i
    assert place.value(rf([3, 0, 1], [2, 0, 1])) == 2  # (t^2+3)/(t^2+2)
    assert place.value(rf([1, 0, 1], [0, 1])) == 0
    assert place.value(rf([1], [1, 0, 1])) is INF
    with pytest.raises(NonSplitResidue):
        place.value(rf([0, 1]))


def test_symbol_independent_of_uniformizer():
    """Any class of order one at the place must produce the same symbol."""
    rng = random.Random(31)
    reg = AtomRegistry()
    v = FinRat(Q(1))
    for _ in range(20):
        r2, r3 = rng.sample([r for r in range(-5, 6) if r != 1], 2)
        w = wedge_of([lin(reg, 1), lin(reg, r2), lin(reg, r3)])
        c = Q(rng.choice([2, 3, 5, -2]))
        other = mult_vec(rf([-1, 1]) * rf([c]) * rf([-Q(r2), 1]) ** 0, reg)
        assert tame_symbol(w, v, reg) == tame_symbol(w, v, reg,
                                                     uniformizer=other)
    # the line y = inf: the default is 1/y, the other c/(y - a)
    x, y = BiFrac.make(BiPoly.var_x()), BiFrac.make(BiPoly.var_y())
    d = LineInf("y")
    for _ in range(20):
        a, b, c = (Q(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(3))
        slots = [y - BiFrac.const(a), x * y - BiFrac.const(b),
                 y - x * BiFrac.const(c), BiFrac.const(c * c + 1)]
        w = wedge_of([mult_vec(f, reg, "Qxy") for f in rng.sample(slots, 3)])
        other = mult_vec(BiFrac.const(c) / (y - BiFrac.const(a)), reg, "Qxy")
        want = tame_symbol(w, d, reg)
        assert tame_symbol(w, d, reg, uniformizer=other) == want
    # the exceptional curve over (1/2, -2/3): the default is 2x - 1, or 2u
    # in the chart x = 1/2 + u, y = -2/3 + u*v; the other c*(y + 2/3 + k*u),
    # or c*u*(v + k), has order 1 too
    c1, c2 = Q(1, 2), Q(-2, 3)
    e = ExceptionalCurve(c1, c2)
    u, s = x - BiFrac.const(c1), y - BiFrac.const(c2)
    seen = set()
    for _ in range(20):
        a, b, c, k = (Q(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(4))
        slots = [u, s, s - u * BiFrac.const(a), s * s - u * BiFrac.const(b),
                 u + BiFrac.const(b), BiFrac.const(c * c + 1)]
        w = wedge_of([mult_vec(f, reg, "Qxy") for f in rng.sample(slots, 3)])
        other = mult_vec(BiFrac.const(c) * (s + u * BiFrac.const(k)), reg,
                         "Qxy")
        want = tame_symbol(w, e, reg)
        assert tame_symbol(w, e, reg, uniformizer=other) == want
        seen.add(want.is_zero)
    assert seen == {True, False}


def test_weil_sum_vanishes_on_split_wedges():
    rng = random.Random(32)
    reg = AtomRegistry()
    for _ in range(50):
        roots = rng.sample(range(-6, 7), 4)
        f = rf([1]) * rf([Q(rng.choice([2, 3, 5]))])
        for r in roots[:2]:
            f = f * rf([-r, 1])
        g = rf([1])
        for r in roots[2:]:
            g = g / rf([-r, 1])
        w = wedge_of([mult_vec(f, reg), mult_vec(g, reg)])
        assert weil_sum(w, reg).is_zero


def test_weil_sum_on_steinberg_wedge():
    reg = AtomRegistry()
    t = mult_vec(rf([0, 1]), reg)
    w = wedge_of([t, one_minus(rf([0, 1]), reg)])
    assert weil_sum(w, reg).is_zero


def test_support_is_deterministic_and_complete():
    reg = AtomRegistry()
    f = mult_vec(rf([0, 1]) / rf([-1, 1]), reg)
    g = lin(reg, 2)
    places = support(wedge_of([f, g]))
    assert places == sorted(places, key=lambda p: p.sort_key())
    assert FinRat(Q(0)) in places and FinRat(Q(1)) in places
    assert FinRat(Q(2)) in places and INFINITY in places
    assert ratfunc_support(rf([-2, 0, 1]), reg) \
        == [IrredPlace(P([-2, 0, 1])), INFINITY]


def test_uniformizer_classes():
    reg = AtomRegistry()
    for place in (FinRat(Q(3)), INFINITY, IrredPlace(P([1, 0, 1])),
                  ExceptionalCurve(Q(1, 2), Q(-2, 3))):
        assert order_at(place.uniformizer(reg), place) == 1


def _tables(reg):
    return reg._primes, reg._uni, reg._bi


def test_uniformizer_class_is_the_class_of_the_defining_function():
    """The closed form equals the class map of t - c, 1/t, the primitive
    equation of a Graph and 1/x or 1/y, and registers the same atoms, in
    both orientations of every surface divisor: lines x = c and y = c,
    graphs y = phi(x) and x = psi(y), and the lines at infinity."""
    rng = random.Random(606)
    places = [(INFINITY, RatFunc.make(P([1]), P([0, 1]))),
              (LineInf("x"), BiFrac.make(BiPoly.const(1), BiPoly.var_x())),
              (LineInf("y"), BiFrac.make(BiPoly.const(1), BiPoly.var_y()))]
    for _ in range(40):
        c = Q(rng.randint(-9, 9), rng.randint(1, 4))
        places.append((FinRat(c), rf([-c, 1])))
        num = [Q(rng.randint(-6, 6), rng.randint(1, 3))
               for _ in range(rng.randint(1, 4))]
        den = [Q(rng.randint(-6, 6), rng.randint(1, 3))
               for _ in range(rng.randint(0, 3))] + [rng.choice([1, 2, -3])]
        phi = rf(num, den)
        if phi.is_zero:
            continue
        for var in ("x", "y"):
            d = solved_divisor(var, phi)
            prim = defining_bipoly(d).primitive_int()[1]
            places.append((d, BiFrac.make(prim)))
    kinds = set()
    for place, f in places:
        surface = isinstance(f, BiFrac)
        # a surface divisor's shape is its sort-key head
        kinds.add(place.sort_key()[0] if surface else type(place).__name__)
        reg, ref = AtomRegistry(), AtomRegistry()
        field = "Qxy" if surface else "Qt"
        assert place.uniformizer(reg) == mult_vec(f, ref, field)
        assert _tables(reg) == _tables(ref)
    # x=c, y=c, y=phi(x), x=psi(y), x=inf, y=inf
    assert kinds == {"FinRat", "Infinity", 0, 1, 2, 3, 4, 5}


@pytest.mark.parametrize("text, place, raises", [
    ("w[v, 3]", "t=0", True), ("w[v, 3]", "t=inf", True),
    ("w[v-1, 2]", "t=inf", True), ("w[v-1, 2]", "t=0", False)])
def test_wedge_over_qv_at_a_place_of_qt(text, place, raises):
    """The default uniformizer lives over Q(t): a unit class is formed,
    and the fields clash, exactly where some slot has a nonzero order."""
    reg = AtomRegistry()
    w = parse_wedge(text, reg)
    assert w.field == "Qv"
    if raises:
        with pytest.raises(MixedFields) as e:
            tame_symbol(w, parse_place(place), reg)
        assert str(e.value) == "Qv vs Qt"
    else:
        assert tame_symbol(w, parse_place(place), reg).is_zero


def test_divisor_strings_and_classification():
    reg = AtomRegistry()
    from tamesym import BiFrac, BiPoly
    x = BiFrac.make(BiPoly.var_x(), BiPoly.const(1))
    y = BiFrac.make(BiPoly.var_y(), BiPoly.const(1))
    c3 = BiFrac.make(BiPoly.const(3), BiPoly.const(1))
    v = mult_vec(x - c3, reg, "Qxy")
    (atom, _), = v.coeffs
    d = classify_atom_divisor(atom)
    assert d.sort_key()[0] == 0 and str(d) == "x=3"
    v = mult_vec(y - c3, reg, "Qxy")
    (atom, _), = v.coeffs
    d = classify_atom_divisor(atom)
    assert d.sort_key()[0] == 1 and str(d) == "y=3"
    v = mult_vec(x - y, reg, "Qxy")
    (atom, _), = v.coeffs
    d = classify_atom_divisor(atom)
    assert d.sort_key()[0] == 2 and str(d) == "y=x"


def test_defining_bipoly_vanishes_on_the_divisor():
    reg = AtomRegistry()
    from tamesym import BiFrac, BiPoly
    x = BiFrac.make(BiPoly.var_x(), BiPoly.const(1))
    y = BiFrac.make(BiPoly.var_y(), BiPoly.const(1))
    v = mult_vec(x * y - BiFrac.make(BiPoly.const(1), BiPoly.const(1)),
                 reg, "Qxy")
    (atom, _), = v.coeffs
    d = classify_atom_divisor(atom)
    g = defining_bipoly(d)
    # xy - 1 cuts the graph y = 1/x; check a few points on it
    for xv in (Q(1), Q(2), Q(-1, 3)):
        yv = 1 / xv
        val = sum(c * xv ** i * yv ** j for (i, j), c in g.terms)
        assert val == 0


def test_symbol_at_divisor():
    reg = AtomRegistry()
    from tamesym import BiFrac, BiPoly
    x = BiFrac.make(BiPoly.var_x(), BiPoly.const(1))
    y = BiFrac.make(BiPoly.var_y(), BiPoly.const(1))
    one = BiFrac.make(BiPoly.const(1), BiPoly.const(1))
    w = wedge_of([mult_vec(x - y, reg, "Qxy"),
                  mult_vec(y - one - one, reg, "Qxy"),
                  mult_vec(Q(5), reg, "Qxy")])
    (atom, _), = mult_vec(x - y, reg, "Qxy").coeffs
    d = classify_atom_divisor(atom)
    got = tame_symbol(w, d, reg)
    assert got.field == "Qt"
    # canonical slot order is [5, y-2, x-y], an odd permutation of the
    # input, and the uniformizer sits in the even slot 2
    assert wedge_str(got) == "-w[5, t-2]"


def test_chain_point_pairs_divisor_and_place():
    reg = AtomRegistry()
    from tamesym import BiFrac, BiPoly
    x = BiFrac.make(BiPoly.var_x(), BiPoly.const(1))
    c3 = BiFrac.make(BiPoly.const(3), BiPoly.const(1))
    (atom, _), = mult_vec(x - c3, reg, "Qxy").coeffs
    d = classify_atom_divisor(atom)
    pt = chain_point(d, FinRat(Q(7)))
    assert pt is not None


def test_symbol_needs_positive_degree():
    reg = AtomRegistry()
    with pytest.raises(ValueError):
        tame_symbol(Wedge.scalar("Qt", Q(2)), FinRat(Q(0)), reg)


def test_vanishing_atom_is_named_in_canonical_text():
    """The refusal names the atom as it is written, not by its repr."""
    reg = AtomRegistry()
    atom = reg.uni(P([0, 1]))
    with pytest.raises(NotAUnit) as e:
        FinRat(Q(0)).unit(atom, reg)
    assert str(e.value) == "atom t vanishes at t=0"
    with pytest.raises(NotAUnit) as e:
        FinRat(Q(1, 2)).unit(reg.uni(P([Q(-1, 2), 1])), reg)
    assert str(e.value) == "atom t-1/2 vanishes at t=1/2"
