"""Places, divisors, tame symbols, and the reciprocity sum.

Each place fixes its uniformizer pi implicitly: `unit(atom, reg)` is the
class of atom / pi^order(atom). The `_ref_*` functions below are the rule
that built pi explicitly and reduced atom - order * pi for every slot,
kept as the reference that any uniformizer, the old default or another
class of order 1, must reproduce.
"""

import random
from fractions import Fraction as Q

import pytest

from tamesym import (INFINITY, AtomRegistry, BiFrac, BiPoly, ExceptionalCurve,
                     FinRat, Graph, Infinity, IrredPlace, MixedFields,
                     MultVec, RatFunc, TameSymError, UniPoly, Wedge,
                     classify_atom_divisor, defining_bipoly, mult_vec,
                     one_minus, parse_place, parse_wedge, tame_symbol,
                     wedge_add, wedge_of, wedge_scale, wedge_str, weil_sum)
from tamesym.atoms import BiAtom
from tamesym.places import (LineInf, chain_point, ratfunc_support,
                            restrict_bi, solved_divisor, support)

P = UniPoly.make


def _ref_uniformizer(place, reg):
    """The six closed-form default uniformizers: t - c, the irreducible q,
    1/t, a graph's primitive equation, 1/var, and the primitive form of
    x - c1 (a constant times u) on an exceptional curve."""
    kind = type(place)
    if kind is FinRat:
        return MultVec("Qt", ((reg.uni(P([-place.c, 1])), Q(1)),))
    if kind is IrredPlace:
        return mult_vec(RatFunc.make(place.poly), reg, "Qt")
    if kind is Infinity:
        return MultVec("Qt", ((reg.uni(UniPoly.var()), Q(-1)),))
    if kind is Graph:
        return MultVec("Qxy", ((reg.bi(place.equation_atom()), Q(1)),))
    if kind is LineInf:
        v = BiPoly.var_x() if place.var == "x" else BiPoly.var_y()
        return MultVec("Qxy", ((reg.bi(v), Q(-1)),))
    _, prim = BiPoly.make({(0, 0): -place.c1, (1, 0): 1}).primitive_int()
    return MultVec("Qxy", ((reg.bi(prim), Q(1)),))


def _ref_order_at(v, place):
    """Order of a class vector at a place, Q-linear in the exponents."""
    total = Q(0)
    for atom, c in v.coeffs:
        total += c * place.order(atom)
    return total


def _ref_tame_symbol(w, place, reg, uniformizer):
    """The residue with an explicit uniformizer pi: slot a's unit class is
    the reduction of a - order(a) * pi, atom by atom, into the residue
    field; summed one single-pi term at a time."""
    def unit(atom):
        if w.field != uniformizer.field:
            raise MixedFields(f"{w.field} vs {uniformizer.field}")
        k = place.order(atom)
        if k == 0:
            return place.unit(atom, reg)
        u = MultVec.make(w.field, {atom: Q(1)}) - uniformizer.scale(k)
        assert _ref_order_at(u, place) == 0
        out = MultVec.zero(place.residue_field)
        for a, c in u.coeffs:
            out = out + place.unit(a, reg).scale(c)
        return out

    field = place.residue_field
    out = Wedge.zero(field, w.degree - 1)
    for key, coeff in w.terms:
        for i, a in enumerate(key):
            k = place.order(a)
            if k == 0:
                continue
            rest = [unit(b) for j, b in enumerate(key) if j != i]
            cof = wedge_of(rest) if rest else Wedge.scalar(field, Q(1))
            out = wedge_add(out, wedge_scale(cof, coeff * k * (-1) ** i))
    return out


def _outcome(fn):
    try:
        return "ok", fn().terms
    except TameSymError as e:
        return "refused", type(e).__name__, str(e)


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
    assert _ref_order_at(f, FinRat(Q(0))) == 2
    assert _ref_order_at(f, FinRat(Q(1))) == -1
    assert _ref_order_at(f, FinRat(Q(5))) == 0
    assert _ref_order_at(f, INFINITY) == -1


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


def test_uniformizer_classes():
    reg = AtomRegistry()
    for place in (FinRat(Q(3)), INFINITY, IrredPlace(P([1, 0, 1])),
                  ExceptionalCurve(Q(1, 2), Q(-2, 3))):
        assert _ref_order_at(_ref_uniformizer(place, reg), place) == 1


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
        pi = _ref_uniformizer(place, reg)
        assert pi == mult_vec(f, ref, field)
        assert _tables(reg) == _tables(ref)
        assert _ref_order_at(pi, place) == 1
    # x=c, y=c, y=phi(x), x=psi(y), x=inf, y=inf
    assert kinds == {"FinRat", "Infinity", 0, 1, 2, 3, 4, 5}


def _curve_cases(rng):
    """Places of Q(t), slots, and order-1 alternatives to the default
    uniformizer: pi times a constant and a quotient of units."""
    c = Q(rng.randint(-3, 3), rng.choice([1, 2]))
    roots = [r for r in range(-4, 5) if r != c]
    t = rf([0, 1])

    def slots(place_slot):
        return [place_slot, rf([-rng.choice(roots), 1]),
                rf([-rng.choice(roots), 1]) ** 2, rf([2, 0, 1]),
                rf([Q(rng.choice([2, 3, 5, -2]))])]

    def units():
        return rf([Q(rng.choice([2, 3, -5]))]) * rf([-rng.choice(roots), 1]) \
            / rf([-rng.choice(roots), 1])

    q = P([2, 0, 1])
    yield FinRat(c), slots(rf([-c, 1])), rf([-c, 1]) * units()
    yield INFINITY, slots(t), units() / rf([-rng.choice(roots), 1])
    yield IrredPlace(q), slots(RatFunc.make(q)), RatFunc.make(q) * units()


def _surface_cases(rng, reg):
    """Surface divisors and exceptional curves, slots, and order-1
    alternatives to the default uniformizer."""
    x, y = BiFrac.make(BiPoly.var_x()), BiFrac.make(BiPoly.var_y())
    a, b, c, k = (Q(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(4))

    def const(v):
        return BiFrac.const(v)

    # a graph y = x^2 + a or its mirror x = y^2 + a
    for var, s, other in (("y", x, y), ("x", y, x)):
        eq = other - s * s - const(a)
        d = classify_atom_divisor(mult_vec(eq, reg, "Qxy").coeffs[0][0])
        yield d, [eq, other - const(b), s - const(c), s * other - const(k),
                  const(c * c + 1)], \
            const(c) * eq * (s - const(b)) / (other - const(k))
    # the line y = inf: the default is 1/y, the other c/(y - a)
    yield LineInf("y"), [y - const(a), x * y - const(b), y - x * const(c),
                         const(c * c + 1)], const(c) / (y - const(a))
    # the line x = inf, the mirror
    yield LineInf("x"), [x - const(a), x * y - const(b), x - y * const(c),
                         const(c * c + 1)], const(c) / (x - const(a))
    # the exceptional curve over (1/2, -2/3): the default is 2x - 1, or 2u
    # in the chart x = 1/2 + u, y = -2/3 + u*v; the other c*(y + 2/3 + k*u),
    # or c*u*(v + k), has order 1 too
    c1, c2 = Q(1, 2), Q(-2, 3)
    u, s = x - const(c1), y - const(c2)
    yield ExceptionalCurve(c1, c2), \
        [u, s, s - u * const(a), s * s - u * const(b), u + const(b),
         const(c * c + 1)], const(c) * (s + u * const(k))


def test_symbol_independent_of_uniformizer():
    """At every place type the symbol equals the one the explicit-pi rule
    gives, for the old default uniformizer and for other classes of order
    one: the unit classes differ, the alternating sum does not."""
    rng = random.Random(31)
    reg = AtomRegistry()
    seen = {}
    for _ in range(20):
        for field, cases in (("Qt", _curve_cases(rng)),
                             ("Qxy", _surface_cases(rng, reg))):
            for place, slots, alt in cases:
                w = wedge_of([mult_vec(f, reg, field)
                              for f in rng.sample(slots, rng.randint(1, 3))])
                want = _outcome(lambda: tame_symbol(w, place, reg))
                for pi in (_ref_uniformizer(place, reg),
                           mult_vec(alt, reg, field)):
                    assert _ref_order_at(pi, place) == 1
                    assert _outcome(lambda: _ref_tame_symbol(
                        w, place, reg, pi)) == want, (place, w)
                seen.setdefault(type(place).__name__, set()).add(
                    want[0] if want[0] == "refused" else bool(want[1]))
    # every type gives zero and nonzero symbols; the quadratic place
    # refuses the wedges whose symbol needs a unit class there
    both = {True, False}
    assert seen == {"FinRat": both, "Infinity": both, "Graph": both,
                    "LineInf": both, "ExceptionalCurve": both,
                    "IrredPlace": both | {"refused"}}


def test_unit_class_of_a_places_own_atom_is_zero():
    reg = AtomRegistry()
    x, y = BiFrac.make(BiPoly.var_x()), BiFrac.make(BiPoly.var_y())
    eq = y - x * x - BiFrac.const(Q(2))
    (atom, _), = mult_vec(eq, reg, "Qxy").coeffs
    for place, own, k in ((FinRat(Q(-1, 2)), reg.uni(P([Q(1, 2), 1])), 1),
                          (IrredPlace(P([2, 0, 1])), reg.uni(P([2, 0, 1])), 1),
                          (INFINITY, reg.uni(P([0, 1])), -1),
                          (classify_atom_divisor(atom), atom, 1),
                          (LineInf("x"), reg.bi(BiPoly.var_x()), -1)):
        assert place.order(own) == k
        assert place.unit(own, reg) == MultVec.zero(place.residue_field)


@pytest.mark.parametrize("place", [LineInf("x"), LineInf("y"),
                                   Graph("y", P([0, 1]), P([1])),
                                   ExceptionalCurve(Q(0), Q(0))],
                         ids=["x=inf", "y=inf", "y=x", "blowup(0,0)"])
def test_surface_place_gives_univariate_atoms_order_zero(place):
    """Only bivariate atoms vanish or have poles along a surface place, so a
    wedge of univariate and prime atoms has the zero residue there."""
    reg = AtomRegistry()
    got = tame_symbol(parse_wedge("w[t-1, 2]", reg), place, reg)
    assert got.is_zero and got.degree == 1


def test_exceptional_curve_pulls_each_atom_back_at_most_twice(monkeypatch):
    """One pull-back for an atom's order and one for its unit class."""
    reg = AtomRegistry()
    w = parse_wedge("w[x-1, y-1, x*y-1, y-x^2, 3]", reg)
    e = ExceptionalCurve(Q(1), Q(1))
    calls = []
    substitute = BiPoly.substitute

    def counted(self, *args):
        calls.append(self)
        return substitute(self, *args)

    monkeypatch.setattr(BiPoly, "substitute", counted)
    got = tame_symbol(w, e, reg)
    monkeypatch.undo()
    assert got == _ref_tame_symbol(w, e, reg, _ref_uniformizer(e, reg))
    assert not got.is_zero
    assert len(set(calls)) == 4
    assert all(calls.count(g) <= 2 for g in calls)
    assert len(calls) == 8


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


@pytest.mark.parametrize("text, place, raises", [
    ("w[v, 3]", "t=0", True), ("w[v, 3]", "t=inf", True),
    ("w[v-1, 2]", "t=inf", True), ("w[v-1, 2]", "t=0", False)])
def test_wedge_over_qv_at_a_place_of_qt(text, place, raises):
    """A place of Q(t) takes wedges over Q(t): a unit class is formed,
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


def _graph_piece(rng):
    """A line, slanted line, parabola, x-solved graph or rational graph."""
    a = Q(rng.randint(-4, 4), rng.choice([1, 2, 3])) or Q(1)
    b = Q(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    return rng.choice([f"y-({b})", f"y-({a})*x-({b})", f"y-({a})*x^2-({b})",
                       f"x-({a})*y^2-({b})*y", f"y*(x^2-({b}))-({a})",
                       f"y*(x-({b}))-({a})*x"])


def test_graph_restricts_every_other_atom_to_a_nonzero_function():
    """A bivariate atom other than a graph's own equation does not vanish
    on the graph: its restriction is a nonzero, finite function of the
    parameter, and `Graph.unit` is its class. Seeded, in both
    orientations."""
    rng = random.Random(20261020)
    reg = AtomRegistry()
    checked = {"x": 0, "y": 0}
    for _ in range(60):
        text = "w[" + ", ".join(_graph_piece(rng) for _ in range(4)) + "]"
        for t in (text, text.translate(str.maketrans("xy", "yx"))):
            w = parse_wedge(t, reg)
            atoms = {a for key, _ in w.terms for a in key
                     if isinstance(a, BiAtom)}
            for d in map(classify_atom_divisor, atoms):
                for atom in atoms:
                    if d.order(atom):  # the graph's own equation
                        continue
                    f = restrict_bi(BiFrac.make(atom.poly), d)
                    assert not f.num.is_zero and not f.den.is_zero, \
                        (t, str(d), str(atom.poly))
                    assert d.unit(atom, reg) == mult_vec(f, reg, "Qt")
                    checked[d.var] += 1
    assert all(checked.values()), checked


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
