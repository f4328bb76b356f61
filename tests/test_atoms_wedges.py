"""Multiplicative classes of functions and their wedge algebra."""

import dataclasses
import gc
import random
import re
import weakref
from fractions import Fraction as Q

import pytest

from tamesym import (AtomRegistry, DegenerateArgument, DegreeMismatch,
                     MixedFields, MultVec, RatFunc, UniPoly, Wedge,
                     constant_class, gamma_add, gamma_scale, gamma_term,
                     mult_vec, one_minus, tame_symbol,
                     wedge_add, wedge_concat, wedge_equal, wedge_of,
                     wedge_scale, wedge_str, wedge_sub)
from tamesym.errors import OneMinusOfOne
from tamesym.wedges import retag, wedge_monomial

P = UniPoly.make


def rf(num, den=(1,)):
    return RatFunc.make(P(num), P(den))


def test_atoms_are_interned():
    reg = AtomRegistry()
    assert reg.prime(7) is reg.prime(7)
    assert reg.uni(P([-3, 1])) is reg.uni(P([-3, 1]))
    with pytest.raises(ValueError):
        reg.uni(P([1, 2]))  # not monic


def test_mult_vec_factors_exactly():
    reg = AtomRegistry()
    v = mult_vec(rf([6, -5, 1]), reg)  # (t-2)(t-3)
    d = v.as_dict()
    assert d[reg.uni(P([-2, 1]))] == 1
    assert d[reg.uni(P([-3, 1]))] == 1
    assert len(d) == 2


def test_mult_vec_is_a_homomorphism():
    rng = random.Random(21)
    reg = AtomRegistry()
    for _ in range(40):
        roots = rng.sample(range(-6, 7), 2)
        c = Q(rng.choice([-3, -2, 2, 3, 5]), rng.choice([1, 2, 3]))
        f = rf([-roots[0], 1]) * rf([c])
        g = rf([-roots[1], 1])
        assert mult_vec(f * g, reg) == mult_vec(f, reg) + mult_vec(g, reg)
        assert mult_vec(f / g, reg) == mult_vec(f, reg) - mult_vec(g, reg)


def test_constant_class_prime_exponents():
    reg = AtomRegistry()
    d = constant_class(Q(-12, 5), reg, "Q")
    assert d[reg.prime(2)] == 2
    assert d[reg.prime(3)] == 1
    assert d[reg.prime(5)] == -1
    # sign and the class of 1 both vanish in the multiplicative group mod
    # torsion
    assert constant_class(Q(1), reg, "Q") == {}
    assert constant_class(Q(-1), reg, "Q") == {}
    assert mult_vec(Q(-1), reg, "Q").is_zero


def test_one_minus():
    reg = AtomRegistry()
    v = one_minus(rf([0, 1]), reg)  # 1 - t
    assert v == mult_vec(rf([1, -1]), reg)
    with pytest.raises(OneMinusOfOne):
        one_minus(rf([1]), reg)


def test_one_minus_of_a_constant_takes_what_mult_vec_takes():
    """A rational or an integer is classed as 1 - f; a float is refused as
    mult_vec refuses it, never read as the rational it rounds to."""
    reg = AtomRegistry()
    assert one_minus(Q(3), reg) == mult_vec(Q(-2), reg)
    assert one_minus(3, reg, "Q") == mult_vec(Q(-2), reg, "Q")
    with pytest.raises(OneMinusOfOne):
        one_minus(Q(1), reg)
    with pytest.raises(TypeError, match="cannot take the class of float"):
        one_minus(0.5, reg)


def test_wedge_alternation_and_swap():
    reg = AtomRegistry()
    a = mult_vec(rf([0, 1]), reg)
    b = mult_vec(rf([-1, 1]), reg)
    assert wedge_of([a, a]).is_zero
    assert wedge_equal(wedge_of([a, b]), wedge_scale(wedge_of([b, a]), -1))


def test_wedge_bilinearity():
    rng = random.Random(22)
    reg = AtomRegistry()
    for _ in range(30):
        r1, r2, r3 = rng.sample(range(-6, 7), 3)
        f = rf([-r1, 1])
        g = rf([-r2, 1])
        h = rf([-r3, 1])
        lhs = wedge_of([mult_vec(f * g, reg), mult_vec(h, reg)])
        rhs = wedge_add(wedge_of([mult_vec(f, reg), mult_vec(h, reg)]),
                        wedge_of([mult_vec(g, reg), mult_vec(h, reg)]))
        assert wedge_equal(lhs, rhs)


def test_wedge_group_laws():
    rng = random.Random(23)
    reg = AtomRegistry()

    def rand_wedge():
        r1, r2 = rng.sample(range(-6, 7), 2)
        w = wedge_of([mult_vec(rf([-r1, 1]), reg),
                      mult_vec(rf([-r2, 1]), reg)])
        return wedge_scale(w, rng.choice([-2, -1, 1, 3]))

    for _ in range(25):
        a, b = rand_wedge(), rand_wedge()
        assert wedge_equal(wedge_add(a, b), wedge_add(b, a))
        assert wedge_sub(wedge_add(a, b), b) == a
        assert wedge_add(a, Wedge.zero("Qt", 2)) == a


def test_degree_zero_wedges_are_scalars():
    w = Wedge.scalar("Q", Q(3, 2))
    assert w.degree == 0
    assert w.scalar_value() == Q(3, 2)
    assert wedge_str(w) == "3/2"
    assert wedge_str(Wedge.zero("Q", 0)) == "0"


def test_wedge_strings_are_canonical():
    reg = AtomRegistry()
    t = mult_vec(rf([0, 1]), reg)
    tm1 = mult_vec(rf([-1, 1]), reg)
    tm3 = mult_vec(rf([-3, 1]), reg)
    # linear atoms sort by descending root, primes come first
    assert wedge_str(wedge_of([t, tm1, tm3])) == "-w[t-3, t-1, t]"
    five = mult_vec(Q(5), reg, "Qt")
    assert wedge_str(wedge_of([five, t])) == "w[5, t]"
    both = wedge_add(wedge_of([t, tm1]), wedge_scale(wedge_of([t, tm3]), 2))
    assert wedge_str(both) == "-2*w[t-3, t] - w[t-1, t]"


def test_wedge_str_of_surface_class():
    reg = AtomRegistry()
    from tamesym import BiFrac, BiPoly
    x = BiFrac.make(BiPoly.var_x(), BiPoly.const(1))
    y = BiFrac.make(BiPoly.var_y(), BiPoly.const(1))
    one = BiFrac.make(BiPoly.const(1), BiPoly.const(1))
    two = one + one
    w = wedge_of([mult_vec(Q(5), reg, "Qxy"),
                  mult_vec(y - two, reg, "Qxy"),
                  mult_vec(x - one, reg, "Qxy"),
                  mult_vec(x - y, reg, "Qxy")])
    assert wedge_str(w) == "w[5, y-2, x-1, x-y]"


def test_mixed_fields_and_degrees_are_rejected():
    """Each value type refuses a sum across fields or degrees with its own
    error class and text."""
    reg = AtomRegistry()
    a = mult_vec(rf([0, 1]), reg)
    b = mult_vec(Q(5), reg, "Q")
    with pytest.raises(MixedFields, match=r"^Q vs Qt$"):
        wedge_of([a, b])
    for op in (lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(MixedFields, match=r"^Qt vs Q$"):
            op(a, b)
    w1 = wedge_of([a, mult_vec(rf([-1, 1]), reg)])
    w2 = wedge_of([a])
    for op in (wedge_add, wedge_sub, wedge_equal):
        with pytest.raises(DegreeMismatch, match=r"^degree 2 vs 1$"):
            op(w1, w2)
        with pytest.raises(MixedFields, match=r"^Qt vs Q$"):
            op(w2, wedge_of([b]))
    g1, g2 = gamma_term(1, Q(2), w2), gamma_term(1, Q(2), w1)
    with pytest.raises(MixedFields, match=r"^tail degree 1 vs 2$"):
        gamma_add(g1, g2)
    with pytest.raises(MixedFields, match=r"^Qt vs Q$"):
        gamma_add(g1, gamma_term(1, Q(2), wedge_of([b])))


def test_value_types_share_one_arithmetic():
    """MultVec, Wedge and GammaSub take +, - and scale from one core: the
    operators agree with the module functions, refuse alike, and a scale
    by 0 is the zero of the same header."""
    reg = AtomRegistry()
    t, t1 = mult_vec(rf([0, 1]), reg), mult_vec(rf([-1, 1]), reg)
    five = mult_vec(Q(5), reg, "Q")
    w1, w2 = wedge_of([t, t1]), wedge_of([t1, mult_vec(Q(3), reg)])
    assert w1 + w2 == wedge_add(w1, w2) and w1 - w2 == wedge_sub(w1, w2)
    assert (w1 - w1).is_zero and w1.scale(Q(1, 2)) == wedge_scale(w1, Q(1, 2))
    g1, g2 = gamma_term(2, Q(3), w1), gamma_term(-1, Q(5), w2)
    assert g1 + g2 == gamma_add(g1, g2) and (g1 - g1).is_zero
    assert g1.scale(3) == gamma_scale(g1, 3) == gamma_add(g1, gamma_add(g1, g1))
    assert (t + t1).as_dict() == {**t.as_dict(), **t1.as_dict()}
    assert t.coeffs is t.terms
    for v in (t, w1, g1):
        zero = v.scale(0)
        assert zero.is_zero and zero == type(v).zero(*v.header())
        assert type(v).make(*v.header(), v.as_dict()) == v
    with pytest.raises(DegreeMismatch, match=r"^degree 2 vs 1$"):
        w1 + wedge_of([t])
    with pytest.raises(MixedFields, match=r"^tail degree 2 vs 1$"):
        g1 - gamma_term(1, Q(2), wedge_of([t]))
    with pytest.raises(MixedFields, match=r"^Qt vs Q$"):
        t - five


def test_concat_and_retag():
    reg = AtomRegistry()
    a = mult_vec(rf([0, 1]), reg)
    b = mult_vec(rf([-1, 1]), reg)
    ab = wedge_concat(wedge_of([a]), wedge_of([b]))
    assert ab == wedge_of([a, b])
    moved = retag(wedge_of([mult_vec(Q(5), reg, "Qt")]), "Q")
    assert moved.field == "Q"
    assert wedge_str(moved) == "w[5]"


def test_wedge_monomial_drops_repeated_atoms():
    reg = AtomRegistry()
    atom = reg.uni(P([-1, 1]))
    assert wedge_monomial("Qt", [atom, atom]).is_zero
    w = wedge_monomial("Qt", [reg.prime(2), atom], Q(-1, 2))
    assert wedge_str(w) == "-1/2*w[2, t-1]"


def test_degenerate_wedge_entry_is_an_error_not_a_zero():
    """Constructing a class of the zero function must raise; silently
    dropping it would hide genuine arithmetic mistakes."""
    reg = AtomRegistry()
    with pytest.raises((DegenerateArgument, ZeroDivisionError, ValueError)):
        mult_vec(rf([0, 1]) - rf([0, 1]), reg)


def test_bivariate_leftovers_are_rechecked():
    """A leftover of content removal or of a factor found by the walk is
    tested again for linearity in both variables, in a fresh registry."""
    from tamesym import BiFrac, BiPoly
    x, y, c3 = BiPoly.var_x(), BiPoly.var_y(), BiPoly.const(3)
    parabola, other = y - x * x, x - y * y  # each linear in one variable

    def atom(reg, p):
        return reg.bi(p.primitive_int()[1])

    reg = AtomRegistry()
    v = mult_vec(BiFrac.make(parabola * (y - c3)), reg, "Qxy")
    assert v.as_dict() == {atom(reg, parabola): 1, atom(reg, y - c3): 1}
    for known in ((), (parabola,)):
        reg = AtomRegistry()
        for p in known:
            mult_vec(BiFrac.make(p), reg, "Qxy")
        v = mult_vec(BiFrac.make(parabola * other), reg, "Qxy")
        assert v.as_dict() == {atom(reg, parabola): 1, atom(reg, other): 1}


def test_bivariate_factors_known_by_construction():
    """Factors linear in x or in y split off in a fresh registry, a
    non-monic coefficient a(x) of y included; the constant and the atoms
    multiply back to the polynomial."""
    from tamesym import BiPoly
    from tamesym.atoms import factor_bipoly
    x, y, one = BiPoly.var_x(), BiPoly.var_y(), BiPoly.const(1)
    cases = [
        [(y - x, 1), (x * y - one, 1)],
        [(y - x, 1), (y + x, 1)],
        [(y - x * x, 2), (x - y * y, 1), (y - x - one, 3)],
        [((x * x + one) * y - (x**3 - BiPoly.const(2)), 1), (y - x * x, 1)],
    ]
    for pieces in cases:
        g = one
        for p, e in pieces:
            g = g * p**e
        reg = AtomRegistry()
        const, exps = factor_bipoly(g, reg)
        assert exps == {reg.bi(p.primitive_int()[1]): e for p, e in pieces}
        back = BiPoly.const(const)
        for a, e in exps.items():
            back = back * a.poly**e
        assert back == g


def _linear_piece(rng):
    """a(x)*y - b(x) with small integer coefficients, or its mirror."""
    from tamesym import BiPoly

    def uni(deg):
        cs = [rng.randint(-3, 3) for _ in range(deg)] + [rng.choice([-2, -1, 1, 2])]
        return BiPoly.make({(i, 0): c for i, c in enumerate(cs)})

    piece = uni(rng.randint(0, 2)) * BiPoly.var_y() - uni(rng.randint(0, 3))
    return piece.swap_xy() if rng.random() < 0.5 else piece


def _product(pieces):
    """prod(p^e) of pieces with integer coefficients, expanded on integer
    term dicts: independent of BiPoly arithmetic, and faster."""
    from tamesym import BiPoly
    g = {(0, 0): 1}
    for p, e in pieces:
        for _ in range(e):
            out: dict = {}
            for (i, j), c in g.items():
                for (k, m), d in p.terms:
                    out[i + k, j + m] = out.get((i + k, j + m), 0) + c * int(d)
            g = out
    return BiPoly.make(g)


def test_bivariate_class_does_not_depend_on_registry_history():
    """The class of a seeded product of pieces linear in x or in y is the sum
    of the pieces' classes in a fresh registry, and the same again once the
    pieces are registered in reverse order."""
    from tamesym import BiFrac
    rng = random.Random(20261019)
    for _ in range(150):
        pieces = [(_linear_piece(rng), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 4))]
        g = _product(pieces)
        fresh = mult_vec(BiFrac.make(g), AtomRegistry(), "Qxy")
        reg = AtomRegistry()
        total = MultVec.zero("Qxy")
        for p, e in reversed(pieces):
            total = total + mult_vec(BiFrac.make(p), reg, "Qxy").scale(e)
        assert fresh == total == mult_vec(BiFrac.make(g), reg, "Qxy")


def test_bivariate_factor_walk_is_bounded(monkeypatch):
    """Past its candidate budget the walk refuses, naming the polynomial."""
    from tamesym import BiFrac, BiPoly, Inconclusive, atoms, bipoly_str
    x, y = BiPoly.var_x(), BiPoly.var_y()
    g = (y - x * x) * (x - y * y)
    monkeypatch.setattr(atoms, "_WALK_BUDGET", 3)
    with pytest.raises(Inconclusive, match=re.escape(bipoly_str(g))):
        mult_vec(BiFrac.make(g), AtomRegistry(), "Qxy")


def test_bivariate_factoring_leaves_no_reference_cycles():
    """Factoring builds no cycle for the collector: once the last reference
    to the registry goes, reference counting alone frees it."""
    from tamesym import BiFrac, BiPoly
    x, y = BiPoly.var_x(), BiPoly.var_y()
    gc.disable()
    try:
        reg = AtomRegistry()
        ref = weakref.ref(reg)
        for k in range(20):
            # the content y - k, then a factor found by the walk, then a
            # linear piece
            other = x - y * y + BiPoly.const(k)
            mult_vec(BiFrac.make(other), reg, "Qxy")
            g = (y - x * x) * other * (y - BiPoly.const(k))
            assert len(mult_vec(BiFrac.make(g), reg, "Qxy").coeffs) == 3
        del reg
        assert ref() is None
    finally:
        gc.enable()


def _value_corpus(rng):
    """Seeded UniPoly and BiPoly values and atoms of all three kinds, each
    with the name of the tuple it hashes as (the Fraction tuple of a
    polynomial, the single dataclass field of an atom) and a way to build
    an equal value afresh."""
    from tamesym import BiAtom, BiPoly, PrimeAtom, UniAtom

    def frac():
        return Q(rng.randint(-9, 9), rng.randint(1, 4))

    def field_copy(v):
        return type(v)(*[getattr(v, f.name) for f in dataclasses.fields(v)])

    unis = [P([frac() for _ in range(rng.randint(0, 6))]) for _ in range(40)]
    bis = [BiPoly.make({(rng.randint(0, 3), rng.randint(0, 3)): frac()
                        for _ in range(rng.randint(0, 5))}) for _ in range(40)]
    primes = [PrimeAtom(p) for p in (2, 3, 5, 7, 11, 13, 10**9 + 7, 2**61 - 1)]
    uni_atoms = [UniAtom(p.monic()) for p in unis if not p.is_zero]
    bi_atoms = [BiAtom(p.primitive_int()[1]) for p in bis if not p.is_zero]
    return [(unis, "coeffs", lambda v: P(v.coeffs)),
            (unis, "coeffs", field_copy),
            (bis, "terms", lambda v: BiPoly.make(dict(v.terms))),
            (bis, "terms", field_copy),
            (primes, "p", field_copy), (uni_atoms, "poly", field_copy),
            (bi_atoms, "poly", field_copy)]


def test_value_types_hash_once_as_their_field_tuple():
    """The cached hash is hash((coeffs,)) for a UniPoly, hash((terms,)) for
    a BiPoly and the dataclass hash hash((field,)) for an atom, so sets and
    dicts keep their iteration order; a value built afresh is equal, with
    the same hash, and copy, deepcopy and pickle give an equal value with
    the same hash. An atom keeps its single field, repr and all."""
    import copy
    import pickle
    for values, name, rebuild in _value_corpus(random.Random(66)):
        for v in values:
            field = getattr(v, name)
            expected = hash((field,))
            assert hash(v) == expected   # computed
            assert hash(v) == expected   # cached
            twin = rebuild(v)            # equal, not hashed yet
            assert v == twin and not v != twin
            assert {v: 1}[twin] == 1
            assert hash(twin) == expected
            if name not in ("coeffs", "terms"):
                assert repr(v) == f"{type(v).__name__}({name}={field!r})"
                assert [f.name for f in dataclasses.fields(v)] == [name]
            for twin in (copy.copy(v), copy.deepcopy(v),
                         pickle.loads(pickle.dumps(v))):
                assert twin == v and hash(twin) == expected
        fresh = [rebuild(v) for v in values]
        assert ([getattr(v, name) for v in set(fresh)]
                == [t[0] for t in set((getattr(v, name),) for v in values)])


def test_class_and_wedge_coefficients_are_fractions():
    """No int coefficient slips into a class, a wedge or a GammaSub, whatever
    the type of the scalar it was built or scaled with."""
    from tamesym import delta, gamma_scale, gamma_term

    def fractions_only(pairs):
        return all(type(c) is Q for _, c in pairs)

    rng = random.Random(67)
    reg = AtomRegistry()
    funcs = []
    while len(funcs) < 30:
        num = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
        den = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
        if any(num) and any(den):
            funcs.append(rf(num, den))
    vecs = [mult_vec(f, reg) for f in funcs]
    vecs += [mult_vec(Q(rng.randint(1, 99), rng.randint(1, 99)), reg)
             for _ in range(5)]
    vecs += [v.scale(rng.choice([2, -1, Q(3, 2)])) for v in vecs[:10]]
    vecs.append(MultVec.make("Qt", {a: 2 for v in vecs[:3]
                                    for a, _ in v.coeffs}))
    assert all(fractions_only(v.coeffs) for v in vecs)
    wedges = [wedge_of(rng.sample(vecs, k)) for k in (1, 2, 2, 3) * 5]
    wedges.append(Wedge.make("Qt", 2, {key: -1 for key, _ in wedges[1].terms}))
    for a in wedges:
        b = next(w for w in wedges if w.degree == a.degree)
        for w in (a, wedge_add(a, b), wedge_scale(a, rng.choice([3, -2])),
                  wedge_sub(a, b)):
            assert fractions_only(w.terms)
    for k in range(20):
        x = funcs[k]
        if x.constant_value() is not None:
            continue
        tail = next(w for w in wedges if w.degree == 1 and not w.is_zero)
        g = gamma_term(rng.choice([1, -2, Q(1, 3)]), x, tail)
        assert fractions_only(g.terms)
        assert fractions_only(gamma_scale(g, 5).terms)
        assert fractions_only(delta(g, reg).terms)


# -- the expansion kernel against the Fraction loops it replaced -------------
# The reference below is the wedge algebra as it stood before products were
# expanded on integers: each product sorted by its atoms' sort_key tuples,
# coefficients accumulated as Fractions, terms ordered by sort_key tuples.


def _ref_sorted_with_sign(atoms):
    arr = [(a.sort_key(), a) for a in atoms]
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1][0] > arr[j][0]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(arr)):
        if arr[i - 1][0] == arr[i][0]:
            return None
    return tuple(a for _, a in arr), sign


def _ref_make(field, degree, mapping):
    items = [(k, Q(c)) for k, c in mapping.items() if c]
    items.sort(key=lambda kc: tuple(a.sort_key() for a in kc[0]))
    return Wedge(field, degree, tuple(items))


def _ref_wedge_of(vectors):
    field = vectors[0].field
    for v in vectors:
        if v.field != field:
            raise MixedFields(f"{v.field} vs {field}")
    out = {}
    stack = [(0, (), Q(1))]
    while stack:
        i, chosen, coeff = stack.pop()
        if i == len(vectors):
            res = _ref_sorted_with_sign(chosen)
            if res is not None:
                out[res[0]] = out.get(res[0], Q(0)) + res[1] * coeff
            continue
        for a, c in vectors[i].coeffs:
            stack.append((i + 1, chosen + (a,), coeff * c))
    return _ref_make(field, len(vectors), out)


def _ref_wedge_concat(a, b):
    out = {}
    for ka, ca in a.terms:
        for kb, cb in b.terms:
            res = _ref_sorted_with_sign(ka + kb)
            if res is not None:
                out[res[0]] = out.get(res[0], Q(0)) + res[1] * ca * cb
    return _ref_make(a.field, a.degree + b.degree, out)


def _ref_single_pi_residue(w, field, order, unit):
    orders, units, out = {}, {}, {}
    for key, coeff in w.terms:
        for a in key:
            if a not in orders:
                orders[a] = order(a)
        for i, a in enumerate(key):
            k = orders[a]
            if k == 0:
                continue
            rest = []
            for j, b in enumerate(key):
                if j != i:
                    if b not in units:
                        units[b] = unit(b)
                    rest.append(units[b])
            cof = _ref_wedge_of(rest) if rest else _ref_make(field, 0, {(): 1})
            scale = coeff * k * (-1 if i % 2 else 1)
            for mono, c in cof.terms:
                out[mono] = out.get(mono, Q(0)) + scale * c
    return _ref_make(field, w.degree - 1, out)


def _kernel_atoms(reg):
    """Primes, monic univariate and bivariate atoms whose sort keys tie on
    every leading entry they can (equal degrees, coefficient tuples that
    differ late and in Fraction order); irreducibility is not needed."""
    from tamesym import BiPoly
    atoms = [reg.prime(p) for p in (2, 3, 5, 7, 11)]
    for cs in ([Q(-1, 2), 1], [Q(3, 4), 1], [-1, 1], [2, 1], [Q(-7, 3), 1],
               [1, Q(1, 3), 1], [1, Q(-1, 3), 1], [-2, 0, 1], [Q(1, 5), 0, 0, 1]):
        atoms.append(reg.uni(P(cs)))
    for terms in ({(1, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 1): 2, (0, 0): -3},
                  {(1, 0): 1, (0, 2): 1, (0, 0): 1}, {(1, 1): 1, (0, 0): -1}):
        atoms.append(reg.bi(BiPoly.make(terms)))
    return atoms


def _kernel_vector(rng, atoms, field="Qt", size=5):
    """A class vector on up to `size` atoms with coefficients of unlike
    denominators and both signs; one in eight is zero."""
    if rng.random() < 0.125:
        return MultVec.zero(field)
    picked = rng.sample(atoms, rng.randint(1, size))
    return MultVec.make(field, {a: Q(rng.choice([-1, 1]) * rng.randint(1, 9),
                                     rng.choice([1, 1, 2, 3, 4, 6, 35]))
                                for a in picked})


def _all_fractions(w):
    return all(type(c) is Q for _, c in w.terms)


def test_expansion_kernel_matches_the_fraction_loops():
    rng = random.Random(1009)
    regs = (AtomRegistry(), AtomRegistry())
    pools = [_kernel_atoms(r) for r in regs]
    # equal atoms from two registries are distinct objects
    assert pools[0][5] == pools[1][5] and pools[0][5] is not pools[1][5]
    for _ in range(300):
        # each slot draws from either registry, so equal atoms meet
        atoms = [rng.choice(pools)[i] for i in range(len(pools[0]))]
        vecs = [_kernel_vector(rng, atoms) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:  # the same atoms again in a later slot
            vecs.append(vecs[0].scale(rng.choice([-2, Q(1, 3)])))
        w = wedge_of(vecs)
        want = _ref_wedge_of(vecs)
        assert w.terms == want.terms and w.degree == want.degree
        assert _all_fractions(w)
        split = rng.randint(1, len(vecs) - 1) if len(vecs) > 1 else 1
        if split < len(vecs):
            a, b = wedge_of(vecs[:split]), wedge_of(vecs[split:])
            got = wedge_concat(a, b)
            assert got.terms == _ref_wedge_concat(a, b).terms
            assert got.terms == w.terms and _all_fractions(got)
        key = [rng.choice(atoms) for _ in range(rng.randint(1, 5))]
        coeff = Q(rng.randint(-9, 9), rng.randint(1, 7))
        got = wedge_monomial("Qt", key, coeff)
        res = _ref_sorted_with_sign(tuple(key))
        want = _ref_make("Qt", len(key), {} if res is None
                         else {res[0]: res[1] * coeff})
        assert got.terms == want.terms and _all_fractions(got)
        mapping = {k: c * rng.choice([1, -3, Q(2, 5)]) for k, c in w.terms}
        assert Wedge.make("Qt", w.degree, mapping).terms \
            == _ref_make("Qt", w.degree, mapping).terms


class _FakePlace:
    """A place of Q(t) with residue field Q whose orders and unit classes
    are drawn at random; each unit call is logged."""

    field = "Qt"
    residue_field = "Q"

    def __init__(self, orders, units, log):
        self.orders, self.units, self.log = orders, units, log

    def order(self, a):
        return self.orders[a]

    def unit(self, a, reg):
        self.log.append(a)
        return self.units[a]


def test_residue_kernel_matches_the_fraction_loop():
    rng = random.Random(2027)
    regs = (AtomRegistry(), AtomRegistry())
    pools = [_kernel_atoms(r) for r in regs]
    for _ in range(200):
        atoms = [rng.choice(pools)[i] for i in range(len(pools[0]))]
        vecs = [_kernel_vector(rng, atoms, size=3)
                for _ in range(rng.randint(1, 4))]
        w = _ref_wedge_of(vecs)
        orders = {a: rng.choice([0, 0, 1, -1, 2, -3]) for a in atoms}
        units = {a: _kernel_vector(rng, atoms[:9], "Q", 3) for a in atoms}
        calls = ([], [])
        place, ref = (_FakePlace(orders, units, log) for log in calls)
        got = tame_symbol(w, place, regs[0])
        want = _ref_single_pi_residue(w, "Q", ref.order,
                                      lambda a: ref.unit(a, regs[0]))
        assert got.terms == want.terms and got.degree == want.degree
        assert got.field == "Q" and _all_fractions(got)
        assert calls[0] == calls[1]
        # a unit class over another field stops the residue where it did
        odd = rng.choice(atoms)
        units[odd] = MultVec.make("Qv", {atoms[0]: Q(1)})
        errors = []
        for kernel in (lambda: tame_symbol(w, place, regs[0]),
                       lambda: _ref_single_pi_residue(
                           w, "Q", ref.order, lambda a: units[a])):
            try:
                kernel()
            except MixedFields as exc:
                errors.append(str(exc))
            else:
                errors.append(None)
        assert errors[0] == errors[1]
