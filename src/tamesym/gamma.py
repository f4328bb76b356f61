"""Weight-two symbols with wedge tails: the subcomplex that feeds the
homotopy construction.

An element is a Q-linear combination of terms {x}_2 (x) tail, where x is a
rational number or rational function (never 0 or 1) and the tail is a wedge
monomial. Arguments are normalized under the six-element symmetry group of
the dilogarithm before storage, so equality is term-map identity. A sum is
built once: delta is one `expand_products` call, and the residue sums
gather their terms in one dict and make the element once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .atoms import Atom, AtomRegistry, mult_vec, one_minus
from .errors import DegenerateArgument, MixedFields, NotDistinct
from .expressions import INF, RatFunc, ratfunc_str
from .places import INFINITY, Place1, ratfunc_support, support, tame_symbol
from .polynomials import ZERO, num_str
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
    reduced once its denominator is made monic."""
    if isinstance(x, RatFunc):
        n, d = x.num, x.den
        m = d - n
        yield x, 1
        yield RatFunc.coprime(d, n), -1
        yield RatFunc(m, d), -1
        yield RatFunc.coprime(d, m), 1
        yield RatFunc.coprime(-m, n), 1
        yield RatFunc.coprime(n, -m), -1
    else:
        yield x, 1
        yield 1 / x, -1
        yield 1 - x, -1
        yield 1 / (1 - x), 1
        yield (x - 1) / x, 1
        yield x / (x - 1), -1


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
        member = _as_arg(member)
        k = _arg_key(member)
        if k in seen and seen[k] != sign:
            return None
        seen[k] = sign
        if best is None or k < best[0]:
            best = (k, member, sign)
    return best[2], best[1]


@dataclass(frozen=True)
class GammaSub:
    """Sum of terms coeff * {x}_2 (x) (wedge monomial tail)."""

    field: str
    tail_degree: int
    terms: tuple[tuple[tuple[B2Arg, tuple[Atom, ...]], Fraction], ...]

    @staticmethod
    def make(field: str, tail_degree: int,
             mapping: dict[tuple[B2Arg, tuple[Atom, ...]], Fraction]) -> "GammaSub":
        items = [(k, c if type(c) is Fraction else Q(c))
                 for k, c in mapping.items() if c]
        items.sort(key=lambda kc: (_arg_key(kc[0][0]),
                                   tuple(a.sort_key() for a in kc[0][1])))
        return GammaSub(field, tail_degree, tuple(items))

    @staticmethod
    def zero(field: str, tail_degree: int) -> "GammaSub":
        return GammaSub(field, tail_degree, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict:
        return dict(self.terms)


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
    out: dict = {}
    for key, tc in tail.terms:
        out[(rep, key)] = out.get((rep, key), ZERO) + c * sign * tc
    return GammaSub.make(tail.field, tail.degree, out)


def gamma_add(a: GammaSub, b: GammaSub) -> GammaSub:
    if a.field != b.field:
        raise MixedFields(f"{a.field} vs {b.field}")
    if a.tail_degree != b.tail_degree:
        raise MixedFields(
            f"tail degree {a.tail_degree} vs {b.tail_degree}")
    d = a.as_dict()
    for k, c in b.terms:
        d[k] = d.get(k, ZERO) + c
    return GammaSub.make(a.field, a.tail_degree, d)


def gamma_scale(a: GammaSub, c) -> GammaSub:
    if type(c) is not Fraction:
        c = Q(c)
    return GammaSub.make(a.field, a.tail_degree,
                         {k: c * v for k, v in a.terms})


def gamma_str(g: GammaSub) -> str:
    """Canonical text form, e.g. '2*{3}_2 ⊗ w[t-1, t]'."""
    if g.is_zero:
        return "0"
    parts: list[str] = []
    for (x, key), c in g.terms:
        xs = ratfunc_str(x, "t") if isinstance(x, RatFunc) else num_str(x)
        body = f"{{{xs}}}_2"
        mag = abs(c)
        if g.tail_degree > 0:
            tail = Wedge(g.field, g.tail_degree, ((key, Q(1)),))
            body += " ⊗ " + wedge_str(tail)
        if mag != 1:
            body = f"{num_str(mag)}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


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

    def diff(u, v):
        if u is INF or v is INF:
            return None  # dropped factor
        return u - v

    num_fs = [diff(a, c), diff(b, d)]
    den_fs = [diff(a, d), diff(b, c)]
    num = Q(1)
    den = Q(1)
    for f in num_fs:
        if f is not None:
            num *= f
    for f in den_fs:
        if f is not None:
            den *= f
    return num / den


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


def _add_ts_gamma(out: dict, g: GammaSub, v: Place1, reg: AtomRegistry) -> None:
    """Add the terms of ts_gamma(g, v) into out."""
    if g.tail_degree == 0:
        return
    for (x, key), c in g.terms:
        xv = v.value(x) if isinstance(x, RatFunc) else x
        if xv is INF or xv == 0 or xv == 1:
            continue
        tail = Wedge(g.field, g.tail_degree, ((key, Q(1)),))
        ts = tame_symbol(tail, v, reg)
        if ts.is_zero:
            continue
        for k, tc in gamma_term(-c, xv, ts).terms:
            out[k] = out.get(k, ZERO) + tc


def ts_gamma(g: GammaSub, v: Place1, reg: AtomRegistry) -> GammaSub:
    """Residue at a place: terms where x is a unit at v contribute
    -{x(v)}_2 (x) ts_v(tail); the rest die.

    On scalar tails the whole map is zero: the target complex one weight
    down has no symbol part for the degree these terms sit in.
    """
    out: dict = {}
    _add_ts_gamma(out, g, v, reg)
    return GammaSub.make("Q", g.tail_degree - 1, out)


def tot_gamma(g: GammaSub, reg: AtomRegistry) -> GammaSub:
    """Sum of ts_gamma over every place where anything can happen: the
    supports of x, 1 - x, the tail, and infinity; one dict, made once."""
    places: set[Place1] = {INFINITY}
    for (x, key), _ in g.terms:
        if isinstance(x, RatFunc):
            places.update(ratfunc_support(x, reg))
            places.update(ratfunc_support(x.one_minus(), reg))
        tail = Wedge(g.field, g.tail_degree, ((key, Q(1)),))
        places.update(support(tail))
    out: dict = {}
    for v in sorted(places, key=lambda p: p.sort_key()):
        _add_ts_gamma(out, g, v, reg)
    return GammaSub.make("Q", g.tail_degree - 1, out)
