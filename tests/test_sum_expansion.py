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
"""

import random
from fractions import Fraction as Q

from tamesym import (AtomRegistry, FinRat, GammaSub, Infinity, IrredPlace,
                     MixedFields, MultVec, NonSplitResidue, RatFunc,
                     TameSymError, Wedge, decompose, delta, gamma_add,
                     gamma_scale, gamma_term, mult_vec, one_minus,
                     parse_wedge, tame_symbol, tot_gamma, wedge_add,
                     wedge_concat, wedge_of, wedge_scale, wedge_sub,
                     weil_sum)
from tamesym.atoms import UniAtom, constant_class
from tamesym.expressions import INF
from tamesym.homotopy import DecompResult, _check_split
from tamesym.places import INFINITY, ratfunc_support, support, support_sum
from tamesym.polynomials import UniPoly
from tamesym.suite import _gamma_element, _rand_rational, _split_slot
from tamesym.wedges import nonconstant_count

from test_mirror import corpus


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
    if isinstance(x, RatFunc):
        if isinstance(v, IrredPlace):
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
        xv = _ref_value_at(x, v)
        if xv is INF or xv == 0 or xv == 1:
            continue
        tail = Wedge(g.field, g.tail_degree, ((key, Q(1)),))
        ts = tame_symbol(tail, v, reg)
        if ts.is_zero:
            continue
        out = gamma_add(out, gamma_term(-c, xv, ts))
    return out


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
