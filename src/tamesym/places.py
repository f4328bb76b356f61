"""Places of Q(t), divisors on the product of two projective lines, and the
tame symbol.

One residue kernel, `single_pi_residue`, serves every place, divisor and
blow-up chart: split each slot of a wedge monomial into (order) *
uniformizer + unit part, expand, keep the single-uniformizer terms, and
reduce the remaining unit slots into the residue field. A sum of residues
over a support gathers every place's summands (`pi_summands`) and expands
them once. Residue fields are Q for places of Q(t) and Q(t) again (in the
divisor's own parameter, renamed to t) for surface divisors.

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

from .atoms import (AtomRegistry, BiAtom, MultVec, PrimeAtom, UniAtom,
                    atom_str, factor_into_atoms, mult_vec)
from .errors import (IdenticallyZeroOnDivisor, MixedFields, NonSplitResidue,
                     NotAUnit, UnsupportedDivisorClass)
from .expressions import INF, BiFrac, RatFunc, ratfunc_str
from .polynomials import (BiPoly, UniPoly, multiplicity_of_factor, num_str,
                          poly_str)
from .wedges import Wedge, class_factors, expand_products

Q = Fraction


# ---------------------------------------------------------------------------
# place and divisor vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinRat:
    """The place t = c of Q(t)."""

    c: Fraction

    def sort_key(self) -> tuple:
        return (0, self.c)

    def __str__(self) -> str:
        return f"t={num_str(self.c)}"


@dataclass(frozen=True)
class IrredPlace:
    """The place cut out by a monic irreducible polynomial of degree >= 2."""

    poly: UniPoly

    def sort_key(self) -> tuple:
        return (1, self.poly.degree, self.poly.coeffs)

    def __str__(self) -> str:
        return f"{poly_str(self.poly, 't')}=0"


@dataclass(frozen=True)
class Infinity:
    """The place t = infinity."""

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

    def phi(self) -> RatFunc:
        return RatFunc(self.num, self.den)

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
class LineInf:
    """The line var = infinity; the parameter is the other coordinate."""

    var: str

    def sort_key(self) -> tuple:
        return (4,) if self.var == "x" else (5,)

    def mirror(self) -> "LineInf":
        return LineInf(_other(self.var))

    def __str__(self) -> str:
        return f"{self.var}=inf"


SurfDivisor = Graph | LineInf


def solved_divisor(var: str, f: RatFunc) -> Graph:
    """The divisor var = f, f a function of the other coordinate."""
    return Graph(var, f.num, f.den)


def defining_bipoly(d: SurfDivisor) -> BiPoly:
    """den(s)*var - num(s), s the other coordinate: the polynomial cutting
    out the graph var = num(s)/den(s) in the finite chart.

    The two lines at infinity have no finite-chart equation; callers
    needing their chart equations handle those directly (the checker
    does), so asking for them here is an error.
    """
    if isinstance(d, LineInf):
        raise ValueError(f"{d} has no finite-chart equation")
    terms = [((i, 1), c) for i, c in enumerate(d.den.coeffs)]
    terms += [((i, 0), -c) for i, c in enumerate(d.num.coeffs)]
    g = BiPoly.make(terms)
    return g if d.var == "y" else g.swap_xy()


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
# orders of vanishing
# ---------------------------------------------------------------------------


def _atom_order(atom, place) -> int:
    if isinstance(atom, PrimeAtom):
        return 0
    if isinstance(place, FinRat):
        return 1 if (isinstance(atom, UniAtom)
                     and atom.poly.degree == 1
                     and -atom.poly.coeff(0) == place.c) else 0
    if isinstance(place, IrredPlace):
        return 1 if isinstance(atom, UniAtom) and atom.poly == place.poly else 0
    if isinstance(place, Infinity):
        return -atom.poly.degree if isinstance(atom, UniAtom) else 0
    if isinstance(place, LineInf):
        return -(atom.poly.deg_x if place.var == "x" else atom.poly.deg_y)
    # finite surface divisors: an irreducible atom vanishes on an
    # irreducible divisor iff it is its defining polynomial
    _, prim = defining_bipoly(place).primitive_int()
    return 1 if isinstance(atom, BiAtom) and atom.poly == prim else 0


def order_at(v: MultVec, place) -> Fraction:
    """Order of vanishing of a class vector at a place or divisor.

    Q-linear in the exponents, so the result can be a fraction for
    non-integer class combinations.
    """
    total = Q(0)
    for atom, c in v.coeffs:
        total += c * _atom_order(atom, place)
    return total


def ratfunc_order(f: RatFunc, place: Place1) -> int:
    """Order of a concrete rational function (not just its class)."""
    if isinstance(place, FinRat):
        return f.order_at_rational(place.c)
    if isinstance(place, Infinity):
        return f.order_at_infinity()
    up = multiplicity_of_factor(f.num, place.poly) if not f.num.is_zero else 0
    return up - multiplicity_of_factor(f.den, place.poly)


# ---------------------------------------------------------------------------
# residue reduction
# ---------------------------------------------------------------------------


def restrict_bi(f: BiFrac, d: SurfDivisor) -> RatFunc:
    """Restrict a bivariate function to a finite divisor, as a function of
    the divisor's parameter (renamed to t).

    Raises IdenticallyZeroOnDivisor when the restriction is 0 or infinite
    identically, i.e. when f has nonzero order along d.
    """
    fn, fd, e = f.num, f.den, d
    if d.var == "x":
        fn, fd, e = fn.swap_xy(), fd.swap_xy(), d.mirror()
    num = fn.eval_y_ratfunc(e.num, e.den) * e.den ** fd.deg_y
    den = fd.eval_y_ratfunc(e.num, e.den) * e.den ** fn.deg_y
    if num.is_zero or den.is_zero:
        raise IdenticallyZeroOnDivisor(
            f"restriction to {d} is identically zero or infinite")
    return RatFunc.make(num, den)


def _atom_residue_class(atom, place, reg: AtomRegistry) -> MultVec:
    """Residue class of one atom; callers guarantee the aggregate is a unit
    (any uniformizer content cancels at the MultVec level first)."""
    if isinstance(place, (FinRat, Infinity)):
        if isinstance(atom, PrimeAtom):
            return mult_vec(Q(atom.p), reg, "Q")
        if isinstance(place, FinRat):
            value = atom.poly.evaluate(place.c)
            if value == 0:
                raise NotAUnit(
                    f"atom {atom_str(atom, 'Qt')} vanishes at {place}")
            return mult_vec(value, reg, "Q")
        return MultVec.zero("Q")  # monic atoms have leading coefficient 1
    if isinstance(place, IrredPlace):
        raise NonSplitResidue(
            f"residue field of {place} is a degree-{place.poly.degree} "
            "extension of Q")
    # surface divisors; residue field Q(t)
    if isinstance(atom, PrimeAtom):
        return mult_vec(Q(atom.p), reg, "Qt")
    g = atom.poly
    if isinstance(place, LineInf):
        if place.var == "x":
            g = g.swap_xy()
        return mult_vec(RatFunc.make(g.y_coefficients()[-1]), reg, "Qt")
    return mult_vec(restrict_bi(BiFrac.make(g), place), reg, "Qt")


def residue_field_of(place) -> str:
    return "Q" if isinstance(place, (FinRat, IrredPlace, Infinity)) else "Qt"


def reduce_unit(u: MultVec, place, reg: AtomRegistry) -> MultVec:
    """Residue class of a unit's class vector, atom by atom."""
    k = order_at(u, place)
    if k != 0:
        raise NotAUnit(f"class has order {k} at {place}")
    out = MultVec.zero(residue_field_of(place))
    for atom, c in u.coeffs:
        out = out + _atom_residue_class(atom, place, reg).scale(c)
    return out


def uniformizer_class(place, reg: AtomRegistry) -> MultVec:
    """The class of the place's own atom, registered without factoring: t - c,
    -t, -x, -y and a Graph's primitive den*var - num (coprime coefficients)
    are linear in one variable, so irreducible by shape. An IrredPlace's
    polynomial goes through the class map, which certifies it."""
    if isinstance(place, IrredPlace):
        return mult_vec(RatFunc.make(place.poly), reg, "Qt")
    if isinstance(place, FinRat):
        return MultVec("Qt", ((reg.uni(UniPoly.make([-place.c, 1])), Q(1)),))
    if isinstance(place, Infinity):
        return MultVec("Qt", ((reg.uni(UniPoly.var()), Q(-1)),))
    if isinstance(place, LineInf):
        v = BiPoly.var_x() if place.var == "x" else BiPoly.var_y()
        return MultVec("Qxy", ((reg.bi(v), Q(-1)),))
    _, prim = defining_bipoly(place).primitive_int()
    return MultVec("Qxy", ((reg.bi(prim), Q(1)),))


# ---------------------------------------------------------------------------
# the tame symbol
# ---------------------------------------------------------------------------


def pi_summands(w: Wedge, order, unit) -> list:
    """The `expand_products` summands of the residue rule shared by every
    place, divisor and blow-up chart.

    order(a) is the order of atom a along the divisor and unit(a) the class
    in the residue field of a's unit part. Each slot of a monomial is
    order * pi + unit; expanded terms with two or more pi slots vanish,
    all-unit terms contribute nothing, and a single pi slot at position i
    contributes sign (-1)^i times the order times the wedge of the other
    slots' unit classes. Degree-1 wedges reduce to bare orders on the
    scalar line.

    order is asked for every atom of every monomial, unit only for the
    other slots of a monomial with a pi slot; each at most once per atom,
    so an atom whose unit class cannot be formed raises only where one is
    needed.
    """
    orders: dict = {}
    units: dict = {}
    summands = []
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
            summands.append((coeff * (-k if i % 2 else k),
                             class_factors(rest) if rest else []))
    return summands


def single_pi_residue(w: Wedge, field: str, order, unit) -> Wedge:
    """The residue rule of `pi_summands`, expanded over `field`."""
    return expand_products(field, w.degree - 1, pi_summands(w, order, unit))


def _place_rule(w: Wedge, place, reg: AtomRegistry,
                uniformizer: MultVec | None = None) -> tuple:
    """order and unit of the residue rule at a place or divisor: the atoms'
    orders there and the residue classes of their unit parts."""
    pi_hat = uniformizer if uniformizer is not None else uniformizer_class(place, reg)

    def unit(atom) -> MultVec:
        if w.field != pi_hat.field:
            raise MixedFields(f"{w.field} vs {pi_hat.field}")
        k = _atom_order(atom, place)
        if k == 0:  # the atom is its own unit part
            return _atom_residue_class(atom, place, reg)
        single = MultVec.make(w.field, {atom: Q(1)})
        return reduce_unit(single - pi_hat.scale(k), place, reg)

    return (lambda a: _atom_order(a, place)), unit


def tame_symbol(w: Wedge, place, reg: AtomRegistry,
                uniformizer: MultVec | None = None) -> Wedge:
    """Residue of a wedge at a place or divisor; degree drops by one.

    The single-pi rule of `single_pi_residue`, with the atoms' orders at
    the place and the residue classes of their unit parts.

    The default uniformizer follows the fixed conventions; passing another
    class with order 1 must give the same answer (constants and units drop
    in the residue wedge), which the test suite exercises.
    """
    if w.degree < 1:
        raise ValueError("tame symbol needs degree at least 1")
    return single_pi_residue(w, residue_field_of(place),
                             *_place_rule(w, place, reg, uniformizer))


# ---------------------------------------------------------------------------
# support and reciprocity sums
# ---------------------------------------------------------------------------


def support(w: Wedge) -> list:
    """Places (curve fields) or divisors (surface field) where some atom of
    the wedge has a nonzero order; deterministic order."""
    atoms = {a for key, _ in w.terms for a in key}
    if w.field in ("Qt", "Qv", "Q"):
        places: list[Place1] = []
        saw_poly = False
        for a in atoms:
            if isinstance(a, UniAtom):
                saw_poly = True
                if a.poly.degree == 1:
                    places.append(FinRat(-a.poly.coeff(0)))
                else:
                    places.append(IrredPlace(a.poly))
        if saw_poly:
            places.append(INFINITY)
        places.sort(key=lambda p: p.sort_key())
        return places
    divisors: set[SurfDivisor] = set()
    for a in atoms:
        if isinstance(a, BiAtom):
            divisors.add(classify_atom_divisor(a))
            if a.poly.deg_x > 0:
                divisors.add(LineInf("x"))
            if a.poly.deg_y > 0:
                divisors.add(LineInf("y"))
    return sorted(divisors, key=lambda d: d.sort_key())


def finite_support_divisors(w: Wedge) -> list[SurfDivisor]:
    """The divisors actually cut out by the wedge's atoms (no infinity
    lines); this is the configuration the crossing checker inspects."""
    return [d for d in support(w) if not isinstance(d, LineInf)]


def support_sum(w: Wedge, field: str, reg: AtomRegistry) -> Wedge:
    """Sum of the tame symbols of w over its support, a wedge over the
    residue field `field`: the residue summands of every place or divisor,
    expanded once."""
    summands = []
    for place in support(w):
        summands += pi_summands(w, *_place_rule(w, place, reg))
        if residue_field_of(place) != field:
            raise MixedFields(f"{field} vs {residue_field_of(place)}")
    return expand_products(field, w.degree - 1, summands)


def weil_sum(w: Wedge, reg: AtomRegistry) -> Wedge:
    """Sum of tame symbols over the support of a wedge over Q(t).

    For degree 2 this vanishes identically (reciprocity); in higher degree
    it is the curve-level differential and can be nonzero.
    """
    return support_sum(w, "Q", reg)


def ratfunc_support(f: RatFunc, reg: AtomRegistry) -> list[Place1]:
    """All places where a concrete rational function has nonzero order."""
    _, exps = factor_into_atoms(f.num, f.den, reg)
    out: list[Place1] = []
    for atom in exps:
        if atom.poly.degree == 1:
            out.append(FinRat(-atom.poly.coeff(0)))
        else:
            out.append(IrredPlace(atom.poly))
    if f.order_at_infinity() != 0:
        out.append(INFINITY)
    out.sort(key=lambda p: p.sort_key())
    return out


# ---------------------------------------------------------------------------
# chain points: where a (divisor, residue place) chain sits on the surface
# ---------------------------------------------------------------------------


def chain_point(d: SurfDivisor, v: Place1):
    """The surface point a second residue lives at, as a hashable key.

    Coordinates are Fractions or INF. Residues at nonrational places get a
    key that never merges across divisors (the split corpus never makes
    them, and pretending to know the matching would be a guess)."""
    if isinstance(v, IrredPlace):
        return ("nonsplit", d.sort_key(), v.sort_key())
    if d.var == "x":
        x, y = chain_point(d.mirror(), v)
        return (y, x)
    t = INF if isinstance(v, Infinity) else v.c
    if isinstance(d, Graph):
        return (t, d.phi().evaluate_projective(t))
    return (t, INF)


def point_key(pt) -> tuple:
    """Sort key of a surface point (x, y), each coordinate a Fraction or
    INF, finite before infinite; nonsplit chain keys sort after every
    point."""
    if isinstance(pt[0], str):  # ("nonsplit", ...)
        return (1, str(pt))
    x, y = pt
    return (0, (1,) if x is INF else (0, x), (1,) if y is INF else (0, y))


def point_str(pt) -> str:
    """Canonical text of a surface point, e.g. (1/2, inf)."""
    return str(pt) if isinstance(pt[0], str) else f"({num_str(pt[0])}, {num_str(pt[1])})"
