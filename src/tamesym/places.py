"""Places of Q(t), divisors on the product of two projective lines, and the
tame symbol.

One residue kernel, `single_pi_residue`, serves every place, divisor and
blow-up chart: split each slot of a wedge monomial into (order) *
uniformizer + unit part, expand, keep the single-uniformizer terms, and
reduce the remaining unit slots into the residue field. Residue fields are
Q for places of Q(t) and Q(t) again (in the divisor's own parameter,
renamed to t) for surface divisors.

Mirror convention: the divisors with parameter y (VLine, GraphX, LineXInf)
are the images of those with parameter x (HLine, GraphY, LineYInf) under
(x, y) -> (y, x), which `mirror` and `BiPoly.swap_xy` apply. Equations,
restrictions and chain points are worked out for the x-parameter divisors;
the others are mirrored there and their results swapped back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .atoms import (AtomRegistry, BiAtom, MultVec, PrimeAtom, UniAtom,
                    atom_str, mult_vec)
from .errors import (IdenticallyZeroOnDivisor, MixedFields, NonSplitResidue,
                     NotAUnit, UnsupportedDivisorClass)
from .expressions import INF, BiFrac, RatFunc, ratfunc_str
from .polynomials import ZERO, BiPoly, UniPoly, poly_str
from .wedges import Wedge, wedge_of

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
        return f"t={self.c}"


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


@dataclass(frozen=True)
class VLine:
    """The vertical line x = c; parameter on the divisor is y."""

    c: Fraction

    def sort_key(self) -> tuple:
        return (0, self.c)

    def __str__(self) -> str:
        return f"x={self.c}"


@dataclass(frozen=True)
class HLine:
    """The horizontal line y = c; parameter is x."""

    c: Fraction

    def sort_key(self) -> tuple:
        return (1, self.c)

    def __str__(self) -> str:
        return f"y={self.c}"


@dataclass(frozen=True)
class GraphY:
    """The closure of y = num(x)/den(x); parameter is x."""

    num: UniPoly
    den: UniPoly

    def phi(self) -> RatFunc:
        return RatFunc(self.num, self.den)

    def sort_key(self) -> tuple:
        return (2, self.num.key(), self.den.key())

    def __str__(self) -> str:
        return f"y={ratfunc_str(self.phi(), 'x')}"


@dataclass(frozen=True)
class GraphX:
    """The closure of x = num(y)/den(y); parameter is y."""

    num: UniPoly
    den: UniPoly

    def psi(self) -> RatFunc:
        return RatFunc(self.num, self.den)

    def sort_key(self) -> tuple:
        return (3, self.num.key(), self.den.key())

    def __str__(self) -> str:
        return f"x={ratfunc_str(self.psi(), 'y')}"


@dataclass(frozen=True)
class LineXInf:
    """The line x = infinity; parameter is y."""

    def sort_key(self) -> tuple:
        return (4,)

    def __str__(self) -> str:
        return "x=inf"


@dataclass(frozen=True)
class LineYInf:
    """The line y = infinity; parameter is x."""

    def sort_key(self) -> tuple:
        return (5,)

    def __str__(self) -> str:
        return "y=inf"


SurfDivisor = VLine | HLine | GraphY | GraphX | LineXInf | LineYInf

LINE_X_INF = LineXInf()
LINE_Y_INF = LineYInf()


def mirror(d: SurfDivisor) -> SurfDivisor:
    """The divisor's image under (x, y) -> (y, x)."""
    if isinstance(d, VLine):
        return HLine(d.c)
    if isinstance(d, HLine):
        return VLine(d.c)
    if isinstance(d, GraphY):
        return GraphX(d.num, d.den)
    if isinstance(d, GraphX):
        return GraphY(d.num, d.den)
    return LINE_Y_INF if isinstance(d, LineXInf) else LINE_X_INF


def graph_y_divisor(phi: RatFunc) -> GraphY:
    return GraphY(phi.num, phi.den)


def graph_x_divisor(psi: RatFunc) -> GraphX:
    return GraphX(psi.num, psi.den)


def defining_bipoly(d: SurfDivisor) -> BiPoly:
    """A polynomial cutting out the divisor in the finite chart.

    For the two lines at infinity this is the empty locus viewpoint of the
    finite chart; callers needing their chart equations handle those
    directly (the checker does), so asking for them here is an error.
    """
    if isinstance(d, (VLine, GraphX)):
        return defining_bipoly(mirror(d)).swap_xy()
    if isinstance(d, HLine):
        return BiPoly.make({(0, 1): 1, (0, 0): -d.c})
    if isinstance(d, GraphY):
        den = BiPoly.from_uni(d.den, "x")
        num = BiPoly.from_uni(d.num, "x")
        return den * BiPoly.var_y() - num
    raise ValueError(f"{d} has no finite-chart equation")


def classify_atom_divisor(atom: BiAtom) -> SurfDivisor:
    """The irreducible divisor cut out by a bivariate atom."""
    g = atom.poly
    dx, dy = g.deg_x, g.deg_y
    if dy <= 0:
        if dx == 1:
            lin = g.subst_y(0)  # a*x + b
            return VLine(-lin.coeff(0) / lin.coeff(1))
        raise UnsupportedDivisorClass(
            f"atom {g} cuts out a nonrational vertical fiber bundle")
    if dx <= 0:
        if dy == 1:
            lin = g.subst_x(0)
            return HLine(-lin.coeff(0) / lin.coeff(1))
        raise UnsupportedDivisorClass(
            f"atom {g} cuts out a nonrational horizontal fiber bundle")
    if dy == 1:
        cols = g.y_coefficients()  # g = cols[1]*y + cols[0]
        phi = RatFunc.make(-cols[0], cols[1])
        return graph_y_divisor(phi)
    if dx == 1:
        cols = g.swap_xy().y_coefficients()
        psi = RatFunc.make(-cols[0], cols[1])
        return graph_x_divisor(psi)
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
    if isinstance(place, LineXInf):
        return -atom.poly.deg_x
    if isinstance(place, LineYInf):
        return -atom.poly.deg_y
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
    from .polynomials import multiplicity_of_factor
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
    if isinstance(d, (VLine, GraphX)):
        fn, fd, e = fn.swap_xy(), fd.swap_xy(), mirror(d)
    if isinstance(e, HLine):
        num, den = fn.subst_y(e.c), fd.subst_y(e.c)
    else:
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
    if isinstance(place, LineXInf):
        g, place = g.swap_xy(), LINE_Y_INF
    if isinstance(place, LineYInf):
        return mult_vec(RatFunc.make(g.y_coefficients()[-1]), reg, "Qt")
    return mult_vec(restrict_bi(BiFrac.make(g), place), reg, "Qt")


def residue_field_of(place) -> str:
    return "Q" if isinstance(place, (FinRat, IrredPlace, Infinity)) else "Qt"


def reduce_unit(u: MultVec, place, reg: AtomRegistry) -> MultVec:
    """Residue class of a unit's class vector, atom by atom."""
    if order_at(u, place) != 0:
        raise NotAUnit(f"class has order {order_at(u, place)} at {place}")
    out = MultVec.zero(residue_field_of(place))
    for atom, c in u.coeffs:
        out = out + _atom_residue_class(atom, place, reg).scale(c)
    return out


def uniformizer_class(place, reg: AtomRegistry) -> MultVec:
    if isinstance(place, FinRat):
        return mult_vec(RatFunc.make(UniPoly.make([-place.c, 1])), reg, "Qt")
    if isinstance(place, IrredPlace):
        return mult_vec(RatFunc.make(place.poly), reg, "Qt")
    if isinstance(place, Infinity):
        return mult_vec(RatFunc.var(), reg, "Qt").scale(-1)
    if isinstance(place, LineXInf):
        return mult_vec(BiFrac.make(BiPoly.var_x()), reg).scale(-1)
    if isinstance(place, LineYInf):
        return mult_vec(BiFrac.make(BiPoly.var_y()), reg).scale(-1)
    _, prim = defining_bipoly(place).primitive_int()
    return mult_vec(BiFrac.make(prim), reg)


# ---------------------------------------------------------------------------
# the tame symbol
# ---------------------------------------------------------------------------


def single_pi_residue(w: Wedge, field: str, order, unit) -> Wedge:
    """The residue rule shared by every place, divisor and blow-up chart.

    order(a) is the order of atom a along the divisor and unit(a) the class
    in the residue field `field` of a's unit part. Each slot of a monomial
    is order * pi + unit; expanded terms with two or more pi slots vanish,
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
    out: dict = {}
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
            cof = wedge_of(rest) if rest else Wedge.scalar(field, 1)
            scale = coeff * k * (-1 if i % 2 else 1)
            for mono, c in cof.terms:
                out[mono] = out.get(mono, ZERO) + scale * c
    return Wedge.make(field, w.degree - 1, out)


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
    pi_hat = uniformizer if uniformizer is not None else uniformizer_class(place, reg)

    def unit(atom) -> MultVec:
        single = MultVec.make(w.field, {atom: Q(1)})
        return reduce_unit(single - pi_hat.scale(_atom_order(atom, place)),
                           place, reg)

    return single_pi_residue(w, residue_field_of(place),
                             lambda a: _atom_order(a, place), unit)


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
                divisors.add(LINE_X_INF)
            if a.poly.deg_y > 0:
                divisors.add(LINE_Y_INF)
    return sorted(divisors, key=lambda d: d.sort_key())


def finite_support_divisors(w: Wedge) -> list[SurfDivisor]:
    """The divisors actually cut out by the wedge's atoms (no infinity
    lines); this is the configuration the crossing checker inspects."""
    return [d for d in support(w) if not isinstance(d, (LineXInf, LineYInf))]


def support_sum(w: Wedge, field: str, reg: AtomRegistry) -> Wedge:
    """Sum of the tame symbols of w over its support, a wedge over the
    residue field `field`."""
    out: dict = {}
    for place in support(w):
        ts = tame_symbol(w, place, reg)
        if ts.field != field:
            raise MixedFields(f"{field} vs {ts.field}")
        for key, c in ts.terms:
            out[key] = out.get(key, ZERO) + c
    return Wedge.make(field, w.degree - 1, out)


def weil_sum(w: Wedge, reg: AtomRegistry) -> Wedge:
    """Sum of tame symbols over the support of a wedge over Q(t).

    For degree 2 this vanishes identically (reciprocity); in higher degree
    it is the curve-level differential and can be nonzero.
    """
    return support_sum(w, "Q", reg)


def ratfunc_support(f: RatFunc, reg: AtomRegistry) -> list[Place1]:
    """All places where a concrete rational function has nonzero order."""
    from .atoms import factor_into_atoms
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
    if isinstance(d, (VLine, GraphX, LineXInf)):
        x, y = chain_point(mirror(d), v)
        return (y, x)
    t = INF if isinstance(v, Infinity) else v.c
    if isinstance(d, HLine):
        return (t, d.c)
    if isinstance(d, GraphY):
        phi = d.phi()
        if t is INF:
            return (INF, phi.evaluate_at_infinity())
        return (t, phi.evaluate(t))
    return (t, INF)
