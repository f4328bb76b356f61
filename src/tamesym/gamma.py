"""Weight-two symbols with wedge tails: the subcomplex that feeds the
homotopy construction.

An element is a Q-linear combination of terms {x}_2 (x) tail, where x is a
rational number or rational function (never 0 or 1) and the tail is a wedge
monomial. Arguments are normalized under the six-element symmetry group of
the dilogarithm before storage, so equality is term-map identity. A sum is
built once: delta is one `expand_products` call, and the residue sums
gather their terms in one dict and make the element once. The residue of
{x}_2 (x) b at v is -{x(v)}_2 (x) ts_v(b), and ts_v(b) is 0 off the support
of b, so `tot_gamma` visits a term only on its tail's support. GammaSub
takes its arithmetic from `atoms.Combination`, with the tail degree as the
grade, and adds its term order and `tail`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import prod

from .atoms import (FIELD_VARS, Atom, AtomRegistry, Combination, mult_vec,
                    one_minus)
from .errors import DegenerateArgument, NonSplitResidue, NotDistinct
from .expressions import INF, RatFunc, ratfunc_str
from .places import Place1, support, tame_symbol
from .polynomials import ZERO, num_str, sum_str
from .wedges import Wedge, class_factors, expand_products, wedge_str

Q = Fraction

B2Arg = Fraction | RatFunc


def _is_degenerate(x) -> bool:
    if isinstance(x, RatFunc):
        return x.is_zero or x.num == x.den  # reduced: x = 1 iff num = den
    return x == 0 or x == 1


def _as_arg(x) -> B2Arg:
    if isinstance(x, RatFunc):
        cv = x.constant_value()
        return cv if cv is not None else x
    return Q(x)


def _orbit(x: B2Arg):
    """The six images of x under the symbol symmetries, with signs.

    For a reduced x = n/d the images are ratios of n, d and m = d - n, which
    are pairwise coprime (gcd(m, d) = gcd(m, n) = gcd(n, d) = 1), so each is
    reduced once its denominator is made monic: by `RatFunc.coprime` for a
    rational function, by `Fraction` for a rational number."""
    if isinstance(x, RatFunc):
        n, d, ratio = x.num, x.den, RatFunc.coprime
    else:
        n, d, ratio = x.numerator, x.denominator, Q
    m = d - n
    yield x, 1
    yield ratio(d, n), -1
    yield ratio(m, d), -1
    yield ratio(d, m), 1
    yield ratio(-m, n), 1
    yield ratio(n, -m), -1


def _arg_key(x: B2Arg) -> tuple:
    if isinstance(x, RatFunc):
        return (1,) + x.key()
    return (0, x)


def b2_normalize(x) -> tuple[int, B2Arg] | None:
    """Minimal orbit representative and the sign relating x to it.

    Returns None when the symbol is forced to vanish: an argument whose
    orbit revisits some value with both signs (the orbit of 2, 1/2, -1)
    gives 2*{x}_2 = 0, hence {x}_2 = 0 over Q.
    """
    if _is_degenerate(x):
        raise DegenerateArgument(f"{{{x}}}_2 with x in {{0, 1}}")
    seen: dict[tuple, int] = {}
    best = None
    for member, sign in _orbit(_as_arg(x)):
        k = _arg_key(member)
        if k in seen and seen[k] != sign:
            return None
        seen[k] = sign
        if best is None or k < best[0]:
            best = (k, member, sign)
    return best[2], best[1]


@dataclass(frozen=True)
class GammaSub(Combination):
    """Sum of terms coeff * {x}_2 (x) (wedge monomial tail)."""

    field: str
    tail_degree: int
    terms: tuple[tuple[tuple[B2Arg, tuple[Atom, ...]], Fraction], ...]

    _grade = "tail_degree"

    @staticmethod
    def _order(items: list) -> None:
        items.sort(key=lambda kc: (_arg_key(kc[0][0]),
                                   tuple(a.sort_key() for a in kc[0][1])))

    def tail(self, key: tuple[Atom, ...]) -> Wedge:
        """The tail monomial `key` as a wedge with coefficient 1."""
        return Wedge(self.field, self.tail_degree, ((key, Q(1)),))


def gamma_term(c, x, tail: Wedge) -> GammaSub:
    """c * {x}_2 (x) tail, one summand per tail monomial.

    Raises DegenerateArgument for x in {0, 1}; arguments whose symbol
    vanishes by symmetry are silently dropped.
    """
    if type(c) is not Fraction:
        c = Q(c)
    norm = b2_normalize(x)
    if norm is None or c == 0:
        return GammaSub.zero(tail.field, tail.degree)
    sign, rep = norm
    return GammaSub.make(tail.field, tail.degree,
                         {(rep, key): c * sign * tc for key, tc in tail.terms})


def gamma_add(a: GammaSub, b: GammaSub) -> GammaSub:
    return a + b


def gamma_scale(a: GammaSub, c) -> GammaSub:
    return a.scale(c)


def gamma_str(g: GammaSub) -> str:
    """Canonical text form, e.g. '2*{3}_2 ⊗ w[t-1, t]'."""
    var = FIELD_VARS[g.field]

    def body(x, key) -> str:
        xs = ratfunc_str(x, var) if isinstance(x, RatFunc) else num_str(x)
        tail = f" ⊗ {wedge_str(g.tail(key))}" if g.tail_degree else ""
        return f"{{{xs}}}_2{tail}"

    return sum_str([(c, body(x, key)) for (x, key), c in g.terms], " ")


# ---------------------------------------------------------------------------
# the differential into wedges
# ---------------------------------------------------------------------------


def delta(g: GammaSub, reg: AtomRegistry) -> Wedge:
    """delta({x}_2 (x) b) = x ^ (1 - x) ^ b, summed over terms in one
    expansion."""
    return expand_products(g.field, g.tail_degree + 2, [
        (c, class_factors([mult_vec(x, reg, g.field),
                           one_minus(x, reg, g.field)]) + [[(key, 1)]])
        for (x, key), c in g.terms])


# ---------------------------------------------------------------------------
# cross-ratios and the five-term element
# ---------------------------------------------------------------------------


def _points_str(pts) -> str:
    """Canonical text of a list of points: 1/2, -3, inf."""
    return "[" + ", ".join(num_str(p) for p in pts) + "]"


def cross_ratio(x1, x2, x3, x4) -> Fraction:
    """[x1:x2:x3:x4] = (x1-x3)(x2-x4) / ((x1-x4)(x2-x3)); one argument may
    be INF, whose two factors cancel against each other."""
    pts = [x if x is INF else Q(x) for x in (x1, x2, x3, x4)]
    if len({("inf",) if p is INF else p for p in pts}) != 4:
        raise NotDistinct(f"cross-ratio of {_points_str(pts)}")
    a, b, c, d = pts

    def finite_product(*pairs) -> Fraction:
        return prod([u - v for u, v in pairs if u is not INF and v is not INF],
                    start=Q(1))

    return finite_product((a, c), (b, d)) / finite_product((a, d), (b, c))


def five_term(x1, x2, x3, x4, x5) -> GammaSub:
    """The alternating sum of the five cross-ratio symbols attached to five
    distinct points; it lies in the kernel of delta."""
    pts = [x1, x2, x3, x4, x5]
    scalar = Wedge.scalar("Qt", 1)
    total = GammaSub.zero("Qt", 0)
    for i in range(5):
        rest = pts[:i] + pts[i + 1:]
        sign = -1 if i % 2 == 0 else 1  # (-1)^(i+1) for 1-based i
        r = cross_ratio(*rest)
        if _is_degenerate(r):
            raise NotDistinct(
                f"cross-ratio of {_points_str(rest)} is degenerate; points "
                "must be distinct")
        total = gamma_add(total, gamma_term(sign, r, scalar))
    return total


# ---------------------------------------------------------------------------
# residues and their sum
# ---------------------------------------------------------------------------


def _residue_sum(g: GammaSub, visits, reg: AtomRegistry) -> GammaSub:
    """Sum over (v, terms) in visits of the residues at v of the terms; one
    dict, made once. A term reads x(v) first, and its tail's residue only
    after it, once per (tail, v) in the call."""
    residue = cache(lambda key, v: tame_symbol(g.tail(key), v, reg))
    out: dict = {}
    for v, terms in visits:
        for (x, key), c in terms:
            try:
                xv = v.value(x) if isinstance(x, RatFunc) else x
            except NonSplitResidue:
                # a term whose tail has residue zero dies whatever x(v) is
                if residue(key, v).is_zero:
                    continue
                raise
            if xv is INF or xv == 0 or xv == 1:
                continue
            ts = residue(key, v)
            if ts.is_zero:
                continue
            for k, tc in gamma_term(-c, xv, ts).terms:
                out[k] = out.get(k, ZERO) + tc
    return GammaSub.make("Q", g.tail_degree - 1, out)


def ts_gamma(g: GammaSub, v: Place1, reg: AtomRegistry) -> GammaSub:
    """Residue at a place: terms where x is a unit at v contribute
    -{x(v)}_2 (x) ts_v(tail); the rest die.

    On scalar tails the whole map is zero: the target complex one weight
    down has no symbol part for the degree these terms sit in.
    """
    return _residue_sum(g, [(v, g.terms if g.tail_degree else ())], reg)


def tot_gamma(g: GammaSub, reg: AtomRegistry) -> GammaSub:
    """Sum of ts_gamma over the places of the tails' supports, in sorted
    order, each term on its own tail's support alone: off it the residue
    is 0, so the term adds and raises nothing (a NonSplitResidue of x(v)
    dies with it); x and 1 - x are never factored."""
    at: dict[Place1, list] = {}
    for term in g.terms:
        for v in support(g.tail(term[0][1])):
            at.setdefault(v, []).append(term)
    return _residue_sum(g, sorted(at.items(), key=lambda vt: vt[0].sort_key()), reg)
