"""Places of Q(t), divisors on the product of two projective lines, the
exceptional curves of point blow-ups, and the tame symbol.

Every place answers for itself: `order(atom)`, `unit(atom, reg)`, the
function field it is a place of (`field`, "Qt" or "Qxy") and its
`residue_field`: Q for places of Q(t), Q(t) again (in the divisor's own
parameter, renamed to t) for surface divisors, Q(v) for an exceptional
curve. Places of Q(t) also give `value(f)`, 0 at a zero and INF at a pole.

Each place fixes a uniformizer pi without building it: t - c, the
irreducible q, 1/t, a graph's equation, and u on the curve u = 0 of a
`Chart`: 1/var on a line at infinity, and u = x - c1 on an exceptional
curve. `Chart` alone writes local coordinates. `unit(atom, reg)` is the
residue class of atom / pi^order(atom), so the class of a place's own
atom is 0. On the exterior powers of the classes (tensored with Q) the
residue does not depend on that choice: replacing pi by pi*u0 shifts each
unit class by order * [u0], and those terms cancel in the alternating
sum. One residue kernel, `pi_summands`, serves every place: each slot of
a wedge monomial is order * pi + unit, and the terms with a single pi
slot are kept. `tame_symbol` expands one place's summands, and a sum over
a support (`support_sum`) expands every place's summands once.

Mirror convention: each surface divisor, a `Graph` var = phi(s) or a
`LineInf` var = inf, names the coordinate `var` it solves for; its
parameter s is the other one, and a line var = c is the graph of a
constant. `mirror()` flips `var`, and with `BiPoly.swap_xy` that is the map
(x, y) -> (y, x). Equations, restrictions and chain points are worked out
for var = "y" (parameter x); a divisor with var = "x" is mirrored there and
its results swapped back. Surface points (x, y) are ordered and printed by
`point_key` and `point_str`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .atoms import AtomRegistry, BiAtom, MultVec, PrimeAtom, UniAtom, mult_vec
from .errors import MixedFields, NonSplitResidue, UnsupportedDivisorClass
from .expressions import INF, BiFrac, RatFunc, ratfunc_str
from .polynomials import BiPoly, UniPoly, num_str, poly_str
from .wedges import Wedge, class_factors, expand_products

Q = Fraction


# ---------------------------------------------------------------------------
# place and divisor vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinRat:
    """The place t = c of Q(t)."""

    c: Fraction
    field = "Qt"
    residue_field = "Q"

    def order(self, atom) -> int:
        return 1 if (isinstance(atom, UniAtom)
                     and atom.poly.degree == 1
                     and -atom.poly.coeff(0) == self.c) else 0

    def unit(self, atom, reg: AtomRegistry) -> MultVec:
        if isinstance(atom, PrimeAtom):
            return MultVec.make("Q", {atom: Q(1)})
        value = atom.poly.evaluate(self.c)
        if value == 0:  # the atom t - c is pi
            return MultVec.zero("Q")
        return mult_vec(value, reg, "Q")

    def value(self, f: RatFunc):
        return f.evaluate_projective(self.c)

    def sort_key(self) -> tuple:
        return (0, self.c)

    def __str__(self) -> str:
        return f"t={num_str(self.c)}"


@dataclass(frozen=True)
class IrredPlace:
    """The place cut out by a monic irreducible polynomial of degree >= 2."""

    poly: UniPoly
    field = "Qt"
    residue_field = "Q"

    def order(self, atom) -> int:
        return 1 if isinstance(atom, UniAtom) and atom.poly == self.poly else 0

    def unit(self, atom, reg: AtomRegistry) -> MultVec:
        if self.order(atom):  # the atom is pi
            return MultVec.zero("Q")
        raise NonSplitResidue(
            f"residue field of {self} is a degree-{self.poly.degree} "
            "extension of Q")

    def value(self, f: RatFunc):
        num, den = f.num % self.poly, f.den % self.poly
        if num.is_zero:
            return Q(0)
        if den.is_zero:
            return INF
        c = num.leading / den.leading
        if num == den.scale(c):
            return c
        raise NonSplitResidue(
            f"value of {f} at {self} lies in a proper extension of Q")

    def sort_key(self) -> tuple:
        return (1,) + self.poly.key()

    def __str__(self) -> str:
        return f"{poly_str(self.poly, 't')}=0"


@dataclass(frozen=True)
class Infinity:
    """The place t = infinity."""

    field = "Qt"
    residue_field = "Q"

    def order(self, atom) -> int:
        return -atom.poly.degree if isinstance(atom, UniAtom) else 0

    def unit(self, atom, reg: AtomRegistry) -> MultVec:
        if isinstance(atom, PrimeAtom):
            return MultVec.make("Q", {atom: Q(1)})
        return MultVec.zero("Q")  # monic atoms have leading coefficient 1

    def value(self, f: RatFunc):
        return f.evaluate_projective(INF)

    def sort_key(self) -> tuple:
        return (2,)

    def __str__(self) -> str:
        return "t=inf"


Place1 = FinRat | IrredPlace | Infinity

INFINITY = Infinity()


def _other(var: str) -> str:
    return "y" if var == "x" else "x"


@dataclass(frozen=True)
class Graph:
    """The closure of var = num(s)/den(s); s, the other coordinate, is the
    parameter."""

    var: str
    num: UniPoly
    den: UniPoly
    field = "Qxy"
    residue_field = "Qt"
    finite = True  # has an equation in the finite chart

    def phi(self) -> RatFunc:
        return RatFunc(self.num, self.den)

    @cached_property
    def equation_atom(self) -> BiPoly:
        """The primitive integer form of `defining_bipoly`, built once per
        graph (kept outside the fields, so eq and hash do not see it)."""
        return defining_bipoly(self).primitive_int()[1]

    def order(self, atom) -> int:
        return 1 if (isinstance(atom, BiAtom)
                     and atom.poly == self.equation_atom) else 0

    def unit(self, atom, reg: AtomRegistry) -> MultVec:
        if isinstance(atom, PrimeAtom):
            return MultVec.make("Qt", {atom: Q(1)})
        if self.order(atom):  # the atom is the equation, pi
            return MultVec.zero("Qt")
        return mult_vec(restrict_bi(BiFrac.make(atom.poly), self), reg, "Qt")

    def sort_key(self) -> tuple:
        c = self.phi().constant_value()
        if c is not None:  # the line var = c
            return (0 if self.var == "x" else 1, c)
        return (2 if self.var == "y" else 3, self.num.key(), self.den.key())

    def mirror(self) -> "Graph":
        return Graph(_other(self.var), self.num, self.den)

    def __str__(self) -> str:
        return f"{self.var}={ratfunc_str(self.phi(), _other(self.var))}"


@dataclass(frozen=True)
class Chart:
    """Local coordinates (u, v) on the surface: x = c1 + u^a * v^b and
    y = c2 + u^c * v^d, for exps ((a, b), (c, d)) and centre (c1, c2). The
    affine charts of P^1 x P^1 put x = u or 1/u and y = v or 1/v; a line at
    infinity is u = 0 with u = 1/var and v the other coordinate; the
    blow-up of (c1, c2) puts x = c1 + u, y = c2 + u*v."""

    exps: tuple
    centre: tuple = (0, 0)

    def _terms(self, g: BiPoly) -> tuple[int, list]:
        """(den, terms) of g in the chart, exponents in (u, v) possibly
        negative; one `substitute` call moves a centre off the origin."""
        if any(self.centre):
            g = g.substitute(BiPoly.make({(0, 0): self.centre[0], (1, 0): 1}),
                             BiPoly.make({(0, 0): self.centre[1], (0, 1): 1}))
        (a, b), (c, d) = self.exps
        return g.den, [((a * i + c * j, b * i + d * j), v)
                       for (i, j), v in g.iterms]

    def equation(self, g: BiPoly) -> BiPoly:
        """g in the chart times the least powers of u and v that clear its
        poles: u^deg_x * g(1/u, v) where x = 1/u."""
        den, terms = self._terms(g)
        su, sv = (min([0] + [k[n] for k, _ in terms]) for n in (0, 1))
        return BiPoly.over(den, [((i - su, j - sv), v) for (i, j), v in terms])

    def order(self, g: BiPoly) -> int:
        """k of g = u^k * (g_k(v) + O(u)) in the chart, g_k nonzero."""
        return min([i for (i, _), _ in self._terms(g)[1]])

    def leading(self, g: BiPoly) -> UniPoly:
        """g_k, for v entering with exponents >= 0."""
        den, terms = self._terms(g)
        k = min([i for (i, _), _ in terms])
        layer = {j: v for (i, j), v in terms if i == k}
        return UniPoly.over(den, [layer.get(j, 0) for j in range(max(layer) + 1)])


class _ChartCurve:
    """The curve u = 0 of the place's `chart`, uniformizer u: a bivariate
    atom's order is its `Chart.order` and its unit class [`Chart.leading`]."""

    field = "Qxy"

    def order(self, atom) -> int:
        return self.chart.order(atom.poly) if isinstance(atom, BiAtom) else 0

    def unit(self, atom, reg: AtomRegistry) -> MultVec:
        if not isinstance(atom, BiAtom):
            return MultVec.make(self.residue_field, {atom: Q(1)})
        return mult_vec(RatFunc.make(self.chart.leading(atom.poly)), reg,
                        self.residue_field)


@dataclass(frozen=True)
class LineInf(_ChartCurve):
    """The line var = inf, u = 0 in the chart u = 1/var, v its parameter."""

    var: str
    residue_field = "Qt"
    finite = False

    @property
    def chart(self) -> Chart:
        return Chart(((-1, 0), (0, 1)) if self.var == "x" else ((0, 1), (-1, 0)))

    def sort_key(self) -> tuple:
        return (4,) if self.var == "x" else (5,)

    def mirror(self) -> "LineInf":
        return LineInf(_other(self.var))

    def __str__(self) -> str:
        return f"{self.var}=inf"


SurfDivisor = Graph | LineInf


@dataclass(frozen=True)
class ExceptionalCurve(_ChartCurve):
    """The curve u = 0 of the blow-up of (c1, c2), with coordinate v."""

    c1: Fraction
    c2: Fraction
    residue_field = "Qv"

    @property
    def chart(self) -> Chart:
        return Chart(((1, 0), (1, 1)), (self.c1, self.c2))


def solved_divisor(var: str, f: RatFunc) -> Graph:
    """The divisor var = f, f a function of the other coordinate."""
    return Graph(var, f.num, f.den)


def defining_bipoly(d: SurfDivisor) -> BiPoly:
    """den(s)*var - num(s), s the other coordinate: the polynomial cutting
    out the graph var = num(s)/den(s) in the finite chart. A line at
    infinity has none; it is u = 0 of its own `chart`."""
    if not d.finite:
        raise ValueError(f"{d} has no finite-chart equation")
    if d.var == "x":
        return defining_bipoly(d.mirror()).swap_xy()
    l = lcm(d.num.den, d.den.den)  # coprime to the content, as either den is
    num = [((i, 0), -v * (l // d.num.den)) for i, v in enumerate(d.num.ints) if v]
    den = [((i, 1), v * (l // d.den.den)) for i, v in enumerate(d.den.ints) if v]
    return BiPoly(l, tuple(sorted(num + den)))


def classify_atom_divisor(atom: BiAtom) -> SurfDivisor:
    """The irreducible divisor cut out by a bivariate atom: solved for y
    where the atom is linear in y, else for x where it is linear in x."""
    g = atom.poly
    if g.deg_y <= 0 and g.deg_x != 1:
        raise UnsupportedDivisorClass(
            f"atom {g} cuts out a nonrational vertical fiber bundle")
    if g.deg_x <= 0 and g.deg_y != 1:
        raise UnsupportedDivisorClass(
            f"atom {g} cuts out a nonrational horizontal fiber bundle")
    for var, h in (("y", g), ("x", g.swap_xy())):
        if h.deg_y == 1:
            cols = h.y_coefficients()  # h = cols[1]*y + cols[0]
            return solved_divisor(var, RatFunc.make(-cols[0], cols[1]))
    raise UnsupportedDivisorClass(
        f"atom {g} is nonlinear in both variables; its divisor is outside "
        "the supported vocabulary")


# ---------------------------------------------------------------------------
# restriction to a divisor
# ---------------------------------------------------------------------------


def restrict_bi(f: BiFrac, d: SurfDivisor) -> RatFunc:
    """Restrict a bivariate function of order 0 along a finite divisor to
    it, as a function of the divisor's parameter (renamed to t)."""
    fn, fd, e = f.num, f.den, d
    if d.var == "x":
        fn, fd, e = fn.swap_xy(), fd.swap_xy(), d.mirror()
    num = fn.eval_y_ratfunc(e.num, e.den) * e.den ** fd.deg_y
    den = fd.eval_y_ratfunc(e.num, e.den) * e.den ** fn.deg_y
    return RatFunc.make(num, den)


# ---------------------------------------------------------------------------
# the tame symbol
# ---------------------------------------------------------------------------


def pi_summands(w: Wedge, place, reg: AtomRegistry) -> list:
    """The `expand_products` summands of the residue of w at a place, a
    divisor or an exceptional curve.

    Each slot of a monomial is order * pi + unit, pi the place's uniformizer
    and unit the class of atom / pi^order in the residue field. Expanded
    terms with two or more pi slots vanish, all-unit terms contribute
    nothing, and a single pi slot at position i contributes sign (-1)^i
    times the order times the wedge of the other slots' unit classes.
    Degree-1 wedges reduce to bare orders on the scalar line.

    `place.order` is asked once per atom of the wedge, `place.unit` once per
    atom that is another slot of a monomial with a pi slot, so an atom
    whose unit class cannot be formed raises only where one is needed, and
    so does a wedge over another field than the place's.
    """
    orders: dict = {}
    units: dict = {}
    summands = []
    for key, coeff in w.terms:
        for a in key:
            if a not in orders:
                orders[a] = place.order(a)
        for i, a in enumerate(key):
            k = orders[a]
            if k == 0:
                continue
            rest = []
            for j, b in enumerate(key):
                if j != i:
                    if b not in units:
                        if w.field != place.field:
                            raise MixedFields(f"{w.field} vs {place.field}")
                        units[b] = place.unit(b, reg)
                    rest.append(units[b])
            summands.append((coeff * (-k if i % 2 else k),
                             class_factors(rest) if rest else []))
    return summands


def tame_symbol(w: Wedge, place, reg: AtomRegistry) -> Wedge:
    """Residue of a wedge at a place; degree drops by one. The summands of
    `pi_summands`, expanded over the place's residue field."""
    if w.degree < 1:
        raise ValueError("tame symbol needs degree at least 1")
    return expand_products(place.residue_field, w.degree - 1,
                           pi_summands(w, place, reg))


# ---------------------------------------------------------------------------
# support and reciprocity sums
# ---------------------------------------------------------------------------


def _place_of(poly: UniPoly) -> Place1:
    return FinRat(-poly.coeff(0)) if poly.degree == 1 else IrredPlace(poly)


def support(w: Wedge) -> list:
    """Places (curve fields) or divisors (surface field) where some atom of
    the wedge has a nonzero order; deterministic order."""
    atoms = {a for key, _ in w.terms for a in key}
    if w.field in ("Qt", "Qv", "Q"):
        places = [_place_of(a.poly) for a in atoms if isinstance(a, UniAtom)]
        places += [INFINITY] if places else []
        return sorted(places, key=lambda p: p.sort_key())
    divisors: set[SurfDivisor] = set()
    for a in atoms:
        if isinstance(a, BiAtom):
            divisors.add(classify_atom_divisor(a))
            divisors.update(d for d in (LineInf("x"), LineInf("y")) if d.order(a))
    return sorted(divisors, key=lambda d: d.sort_key())


def finite_support_divisors(w: Wedge) -> list[SurfDivisor]:
    """The divisors actually cut out by the wedge's atoms (no infinity
    lines); this is the configuration the crossing checker inspects."""
    return [d for d in support(w) if d.finite]


def support_sum(w: Wedge, field: str, reg: AtomRegistry) -> Wedge:
    """Sum of the tame symbols of w over its support, a wedge over the
    residue field `field`: the residue summands of every place or divisor,
    expanded once."""
    summands = []
    for place in support(w):
        summands += pi_summands(w, place, reg)
        if place.residue_field != field:
            raise MixedFields(f"{field} vs {place.residue_field}")
    return expand_products(field, w.degree - 1, summands)


def weil_sum(w: Wedge, reg: AtomRegistry) -> Wedge:
    """Sum of tame symbols over the support of a wedge over Q(t).

    For degree 2 this vanishes identically (reciprocity); in higher degree
    it is the curve-level differential and can be nonzero.
    """
    return support_sum(w, "Q", reg)


# ---------------------------------------------------------------------------
# chain points: where a (divisor, residue place) chain sits on the surface
# ---------------------------------------------------------------------------


def chain_point(d: SurfDivisor, v: Place1):
    """The surface point (x, y) a second residue lives at: the point of d
    over the parameter's value at v. Coordinates are Fractions or INF.

    Raises NonSplitResidue at a place of degree >= 2, whose points have
    coordinates in a proper extension of Q."""
    try:
        s = v.value(RatFunc.var())
    except NonSplitResidue:
        raise NonSplitResidue(f"chain point of {d} over {v} lies in a "
                              "proper extension of Q") from None
    pt = (s, d.phi().evaluate_projective(s) if d.finite else INF)
    return pt if d.var == "y" else pt[::-1]


def point_key(pt) -> tuple:
    """Sort key of a surface point (x, y), each coordinate a Fraction or
    INF, finite before infinite."""
    x, y = pt
    return ((1,) if x is INF else (0, x), (1,) if y is INF else (0, y))


def point_str(pt) -> str:
    """Canonical text of a surface point, e.g. (1/2, inf)."""
    return f"({num_str(pt[0])}, {num_str(pt[1])})"
