"""Every sum in the residue and homotopy layers is one expansion.

`delta`, `decompose`, the support sums (`weil_sum` and the surface
differential) and `tot_gamma` each build their total at once and
canonicalise it once. The `_ref_*` functions below are the pairwise folds
they replaced, kept verbatim, with the reduction order of `_ref_decompose`
drawn at random on every other wedge, and the place-type switches
`_ref_ratfunc_order` and `_ref_value_at` that `value` of a place replaced;
on seeded curve wedges, their preimages and seeded symbol elements, and on
the surface mirror corpus, both must give the same terms in the same
order, or refuse with the same error.

`_ref_tot_gamma` keeps the rule that visited every place where anything
can happen, the supports of x, 1 - x (`ratfunc_support`) and the tail and
infinity, against `tot_gamma`, which visits the tails' supports alone.
"""

import random
from fractions import Fraction as Q

from tamesym import (AtomRegistry, DegenerateArgument, FinRat, GammaSub,
                     Infinity, IrredPlace, MixedFields, MultVec,
                     NonSplitResidue, RatFunc, TameSymError, Wedge, decompose,
                     delta, gamma_add, gamma_scale, gamma_term, mult_vec,
                     one_minus, parse_wedge, tame_symbol, tot_gamma,
                     ts_gamma, wedge_add, wedge_concat, wedge_of,
                     wedge_scale, wedge_sub, weil_sum)
from tamesym.atoms import UniAtom, constant_class, factor_into_atoms
from tamesym.expressions import INF
from tamesym.homotopy import DecompResult, _check_split
from tamesym.places import INFINITY, _place_of, support, support_sum
from tamesym.polynomials import UniPoly
from tamesym.suite import _gamma_element, _rand_rational, _split_slot
from tamesym.wedges import nonconstant_count

from test_mirror import corpus
from test_polynomials import swinnerton_dyer


def _ref_delta(g, reg):
    total = Wedge.zero(g.field, g.tail_degree + 2)
    for (x, key), c in g.terms:
        head = wedge_of([mult_vec(x, reg, g.field),
                         one_minus(x, reg, g.field)])
        tail = Wedge(g.field, g.tail_degree, ((key, Q(1)),))
        total = wedge_add(total, wedge_scale(wedge_concat(head, tail), c))
    return total


def _ref_decompose(w, reg, rng=None):
    _check_split(w)
    preimage = GammaSub.zero("Qt", w.degree - 2)
    current = w
    while True:
        heavy = [(key, c) for key, c in current.terms
                 if nonconstant_count(key) >= 3]
        if not heavy:
            break
        if rng is None:
            heavy.sort(key=lambda kc: (-nonconstant_count(kc[0]),
                                       tuple(a.sort_key() for a in kc[0])))
            key, c = heavy[0]
        else:
            key, c = heavy[rng.randrange(len(heavy))]
        aa, bb, cc = [x for x in key if isinstance(x, UniAtom)][:3]
        a, b, c3 = (-x.poly.coeff(0) for x in (aa, bb, cc))
        lam = (a - c3) / (b - c3)
        tail_key = tuple(x for x in key if x not in (bb, cc))
        tail = Wedge.make("Qt", len(tail_key), {tail_key: Q(1)})
        candidate = gamma_term(1, RatFunc(bb.poly.scale(lam), aa.poly), tail)
        slots = []
        for const, atom in ((lam, bb), (1 - lam, cc)):
            cls = constant_class(const, reg, "Qt")
            cls[atom], cls[aa] = Q(1), Q(-1)
            slots.append(MultVec.make("Qt", cls))
        image = wedge_concat(wedge_of(slots), tail)
        s = image.as_dict().get(key)
        step = gamma_scale(candidate, c / s)
        preimage = gamma_add(preimage, step)
        current = wedge_sub(current, wedge_scale(image, c / s))
    return DecompResult(preimage=preimage, remainder=current)


def _ref_support_sum(w, field, reg):
    out = {}
    for place in support(w):
        ts = tame_symbol(w, place, reg)
        if ts.field != field:
            raise MixedFields(f"{field} vs {ts.field}")
        for key, c in ts.terms:
            out[key] = out.get(key, Q(0)) + c
    return Wedge.make(field, w.degree - 1, out)


def _ref_ratfunc_order(f, place):
    if isinstance(place, Infinity):
        return f.order_at_infinity()
    q = UniPoly.make([-place.c, 1]) if isinstance(place, FinRat) else place.poly

    def multiplicity(p):
        """Order of the irreducible factor q in the nonzero polynomial p."""
        k = 0
        while True:
            quo, rem = p.divmod(q)
            if not rem.is_zero:
                return k
            p, k = quo, k + 1

    up = multiplicity(f.num) if not f.num.is_zero else 0
    return up - multiplicity(f.den)


def _ref_value_at(x, v):
    """x(v) for x of order 0 at v."""
    if isinstance(x, RatFunc):
        if isinstance(v, IrredPlace):
            # x(v) is the rational c when q divides num - c*den, and c is
            # then the ratio of the leading coefficients modulo q
            rn, rd = x.num.divmod(v.poly)[1], x.den.divmod(v.poly)[1]
            c = rn.leading / rd.leading
            if (x.num - x.den.scale(c)).divmod(v.poly)[1].is_zero:
                return c
            raise NonSplitResidue(
                f"value of {x} at {v} lies in a proper extension of Q")
        return x.evaluate_projective(INF if isinstance(v, Infinity) else v.c)
    return x


def _ref_ts_gamma(g, v, reg):
    out = GammaSub.zero("Q", g.tail_degree - 1)
    if g.tail_degree == 0:
        return out
    for (x, key), c in g.terms:
        if isinstance(x, RatFunc) and _ref_ratfunc_order(x, v) != 0:
            continue
        tail = Wedge(g.field, g.tail_degree, ((key, Q(1)),))
        try:
            xv = _ref_value_at(x, v)
        except NonSplitResidue:
            if tame_symbol(tail, v, reg).is_zero:
                continue
            raise
        if xv is INF or xv == 0 or xv == 1:
            continue
        ts = tame_symbol(tail, v, reg)
        if ts.is_zero:
            continue
        out = gamma_add(out, gamma_term(-c, xv, ts))
    return out


def ratfunc_support(f, reg):
    """All places where a concrete rational function has nonzero order."""
    exps = factor_into_atoms(f.num, f.den, reg)
    out = [_place_of(atom.poly) for atom in exps]
    if f.order_at_infinity() != 0:
        out.append(INFINITY)
    out.sort(key=lambda p: p.sort_key())
    return out


def test_ratfunc_support_names_every_zero_and_pole():
    reg = AtomRegistry()
    t = RatFunc.var()
    assert ratfunc_support(t * t - RatFunc.const(2), reg) \
        == [IrredPlace(UniPoly.make([-2, 0, 1])), INFINITY]
    assert ratfunc_support(t / (t - RatFunc.const(1)), reg) \
        == [FinRat(Q(0)), FinRat(Q(1))]


def _ref_tot_gamma(g, reg):
    places = {INFINITY}
    for (x, key), _ in g.terms:
        if isinstance(x, RatFunc):
            places.update(ratfunc_support(x, reg))
            places.update(ratfunc_support(x.one_minus(), reg))
        tail = Wedge(g.field, g.tail_degree, ((key, Q(1)),))
        places.update(support(tail))
    out = GammaSub.zero("Q", g.tail_degree - 1)
    for v in sorted(places, key=lambda p: p.sort_key()):
        out = gamma_add(out, _ref_ts_gamma(g, v, reg))
    return out


def _outcome(fn):
    try:
        return "ok", fn().terms
    except TameSymError as e:
        return "refused", type(e).__name__, str(e)


def _curve_wedge(rng, reg):
    """A rational multiple of a wedge of degree 3-5 whose slots are scaled
    linear polynomials or constants, plus sometimes a second one."""
    degree = rng.randint(3, 5)
    w = wedge_scale(wedge_of([_split_slot(rng, reg) for _ in range(degree)]),
                    _rand_rational(rng))
    if rng.random() < 0.3:
        w = wedge_add(w, wedge_of([_split_slot(rng, reg)
                                   for _ in range(degree)]))
    return w


def test_curve_sums_match_the_pairwise_folds():
    rng = random.Random(1717)
    for i in range(200):
        reg = AtomRegistry()
        w = _curve_wedge(rng, reg)
        seed = rng.randint(0, 10**9) if i % 2 else None
        got = decompose(w, reg)
        want = _ref_decompose(w, reg, seed and random.Random(seed))
        assert got.preimage.terms == want.preimage.terms, i
        assert got.remainder.terms == want.remainder.terms, i
        assert delta(got.preimage, reg).terms \
            == _ref_delta(got.preimage, reg).terms
        if i % 4 == 0:
            assert tot_gamma(got.preimage, reg).terms \
                == _ref_tot_gamma(got.preimage, reg).terms
        assert weil_sum(w, reg).terms == _ref_support_sum(w, "Q", reg).terms
        if i % 2:
            g = _gamma_element(rng, reg, 2 + i % 3)
            assert delta(g, reg).terms == _ref_delta(g, reg).terms
            assert tot_gamma(g, reg).terms == _ref_tot_gamma(g, reg).terms


def test_surface_sums_match_the_pairwise_folds():
    """The surface differential's sums, and the refusal of a surface wedge
    asked for a sum over Q, which names the first residue field met."""
    for i, text in enumerate(corpus(100)):
        reg = AtomRegistry()
        w = parse_wedge(text, reg, field="Qxy")
        for field in ("Qt", "Q") if i < 10 else ("Qt",):
            assert _outcome(lambda: support_sum(w, field, reg)) \
                == _outcome(lambda: _ref_support_sum(w, field, reg)), text


# irreducible quadratics over Q, shared by arguments and tails so that an
# argument's value at a tail's place of degree 2 is sometimes rational
QUADRATICS = [[1, 0, 1], [-2, 0, 1], [1, 1, 1], [3, 0, 1], [2, 2, 1]]


def _rand_ratfunc_factor(rng):
    """t - a, a split quadratic, or an irreducible one."""
    r = rng.random()
    a, b = rng.randint(-4, 4), rng.randint(-4, 4)
    if r < 0.45:
        return UniPoly.make([-a, 1])
    if r < 0.6:
        return UniPoly.make([a * b, -a - b, 1])
    return UniPoly.make(rng.choice(QUADRATICS))


def _rand_argument(rng):
    """A rational number, a scaled quotient of the factors above, or an
    irreducible quadratic plus a constant (rational at that place)."""
    r = rng.random()
    if r < 0.25:
        return _rand_rational(rng, avoid=(0, 1))
    c = UniPoly.const(_rand_rational(rng))
    if r < 0.4:
        q = UniPoly.make(rng.choice(QUADRATICS))
        return RatFunc.make(q + UniPoly.const(rng.randint(-3, 3)), c)
    num = _rand_ratfunc_factor(rng) * c
    den = _rand_ratfunc_factor(rng) if rng.random() < 0.6 else UniPoly.const(1)
    return RatFunc.make(num, den)


def _rand_symbol(rng, reg):
    """A sum of 1-3 terms c * {x}_2 (x) tail over Q(t), or over Q(v) one
    time in five, with tails of degree 0-2 whose slots are linear atoms,
    quadratic atoms (split or not) and constants; None if every argument
    drawn was 0 or 1."""
    field = "Qv" if rng.random() < 0.2 else "Qt"
    degree = rng.choice([0, 1, 1, 2, 2])
    total = None
    for _ in range(rng.randint(1, 3)):
        slots = [mult_vec(RatFunc.make(_rand_ratfunc_factor(rng))
                          if rng.random() < 0.75 else _rand_rational(rng),
                          reg, field) for _ in range(degree)]
        tail = wedge_of(slots) if slots else Wedge.scalar(field, 1)
        try:
            term = gamma_term(_rand_rational(rng), _rand_argument(rng), tail)
        except DegenerateArgument:  # x in {0, 1}
            continue
        total = term if total is None else gamma_add(total, term)
    return total


def _drops_a_nonsplit_value(g):
    """Some argument's value at a place of the tails' supports lies in a
    proper extension of Q."""
    places = {v for (_, key), _ in g.terms for v in support(g.tail(key))}
    for v in places:
        for (x, _), _ in g.terms:
            if not isinstance(x, RatFunc):
                continue
            try:
                v.value(x)
            except NonSplitResidue:
                return True
    return False


def test_tot_gamma_matches_the_all_places_rule():
    """Answers and refusals, class and message, on seeded symbols with
    quadratic atoms, values that do not split over Q and Q(v) tails; the
    NonSplitResidue of a value whose tail has residue 0 is caught and the
    term dropped on both sides."""
    rng = random.Random(2411)
    seen: dict = {}
    caught = raised_at_a_value = 0
    for i in range(1200):
        reg = AtomRegistry()
        g = _rand_symbol(rng, reg)
        if g is None:
            continue
        got = _outcome(lambda: tot_gamma(g, reg))
        assert got == _outcome(lambda: _ref_tot_gamma(g, reg)), i
        kind = got[0] if got[0] == "ok" else got[1]
        seen[kind] = seen.get(kind, 0) + 1
        caught += got[0] == "ok" and _drops_a_nonsplit_value(g)
        raised_at_a_value += got[0] == "refused" and got[2].startswith("value of")
    assert sum(seen.values()) >= 1000
    assert seen["ok"] >= 300 and seen["NonSplitResidue"] >= 100, seen
    assert seen["MixedFields"] >= 20, seen
    assert caught >= 50 and raised_at_a_value >= 50


def test_tot_gamma_does_not_factor_its_arguments():
    """A degree-32 argument that the factorer refuses: the all-places rule
    raised Inconclusive, and the residues of the tail w[t] answer."""
    reg = AtomRegistry()
    sd = swinnerton_dyer((2, 3, 5, 7, 11))
    g = gamma_term(1, RatFunc.make(sd), wedge_of([mult_vec(RatFunc.var(), reg)]))
    assert _outcome(lambda: _ref_tot_gamma(g, reg))[:2] \
        == ("refused", "Inconclusive")
    assert tot_gamma(g, reg) == gamma_term(-1, sd.coeff(0), Wedge.scalar("Q", 1))


def test_tot_gamma_takes_each_tail_residue_once_on_its_support(monkeypatch):
    """tot_gamma asks for a tail's residue only at a place of that tail's
    support, and at most once per (tail, place) in a call; ts_gamma at most
    once per tail. Seeded symbols of both corpora above, answered or
    refused."""
    import tamesym.gamma as gamma_module

    calls = []

    def recorded(w, v, reg):
        calls.append((w, v))
        return tame_symbol(w, v, reg)

    monkeypatch.setattr(gamma_module, "tame_symbol", recorded)
    rng = random.Random(2412)
    total = repeated_tails = 0
    for i in range(600):
        reg = AtomRegistry()
        g = _rand_symbol(rng, reg) if i % 2 else _gamma_element(rng, reg, 2 + i % 3)
        if g is None:
            continue
        calls.clear()
        _outcome(lambda: tot_gamma(g, reg))
        assert all(v in support(w) for w, v in calls), i
        assert len(set(calls)) == len(calls), i
        total += len(calls)
        tails = [key for (_, key), _ in g.terms]
        repeated_tails += len(set(tails)) < len(tails)
        for v in {v for w, v in calls}:
            calls.clear()
            _outcome(lambda: ts_gamma(g, v, reg))
            assert len(set(calls)) == len(calls), i
    assert total >= 800 and repeated_tails >= 60, (total, repeated_tails)
