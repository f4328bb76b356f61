"""Text input for every value the command-line tool handles.

One character-level recursive-descent parser covers rational expressions,
wedges, weight-two symbols, graded elements, cube cycles, places, and
divisors. The grammar lives in docs/grammar.ebnf. Over Q(t) and Q(v), an
expression that is a sum of monomials is read in one regex pass straight to
its integer coefficients (`_poly_run`), the base its sums build, and every
other text by the grammar. Every renderer in the package produces text that
parses back, over the value's field (whose variables `atoms.FIELD_VARS`
names), to an equal value, with one exception: a zero wedge or symbol of
positive degree prints "0", which reads back as the zero of degree 0.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .atoms import FIELD_VARS, AtomRegistry, MultVec, mult_vec
from .chow import CubeCurve
from .errors import DegreeMismatch, MixedFields, ParseError
from .expressions import _ONE, BiFrac, RatFunc
from .gamma import GammaSub, gamma_add, gamma_term
from .lambda_complex import LambdaElem
from .places import (INFINITY, FinRat, IrredPlace, LineInf, Place1,
                     SurfDivisor, solved_divisor)
from .polynomials import BiPoly, UniPoly, irreducible_check_uni, poly_str
from .wedges import Wedge, class_factors, expand_products, wedge_add

Q = Fraction

# Every product has a degree bound (`_Product.degree`; over Q(x, y) degree
# in x plus degree in y). A power whose base has bound d is refused when
# d * |e| exceeds MAX_POWER_DEGREE, and a power of a constant whose numerator
# or denominator has b bits when b * |e| exceeds MAX_POWER_BITS; a side of a
# sum, and a text multiplied out whole, when its bound exceeds
# MAX_POWER_DEGREE. All before anything is expanded; see docs/grammar.ebnf.
MAX_POWER_DEGREE = 100
MAX_POWER_BITS = 4096


class _Scanner:
    """Cursor over the input with whitespace-skipping token helpers."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.match(token):
            self.fail(f"expected {token!r}")

    def fail(self, message: str):
        raise ParseError(message, self.pos)

    def parse_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number")
        return int(self.text[start:self.pos])

    def parse_rational(self) -> Fraction:
        """Unsigned INT or INT/INT; backtracks when '/' starts something
        else (division inside a larger expression is not this path)."""
        n = self.parse_uint()
        save = self.pos
        if self.match("/"):
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                start = self.pos
                d = self.parse_uint()
                if d == 0:
                    raise ParseError("division by zero", start)
                return Q(n, d)
            self.pos = save
        return Q(n)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class _Ctx:
    """Evaluation context for the expression grammar: named variables plus
    a constant embedding, each leaf a one-factor _Product."""

    def __init__(self, variables: dict, const):
        self.variables = {k: _Product(((v, 1),)) for k, v in variables.items()}
        self.const = lambda n: _Product(((const(n), 1),))
        # the variable of Q(t) or Q(v), whose sums `_poly_run` reads
        self.var = next(iter(variables)) if len(variables) == 1 else None


def _rat_ctx(var: str) -> _Ctx:
    return _Ctx({var: RatFunc.var()}, RatFunc.const)


def _ctx_for(field: str) -> _Ctx:
    """The variables of `field`, named as FIELD_VARS names them."""
    if field not in FIELD_VARS:
        raise ValueError(f"unknown field {field!r}")
    var = FIELD_VARS[field]
    if var is None:
        return _Ctx({}, Q)
    if isinstance(var, str):
        return _rat_ctx(var)
    x, y = var
    return _Ctx({x: BiFrac.make(BiPoly.var_x()),
                 y: BiFrac.make(BiPoly.var_y())}, BiFrac.const)


class _Product:
    """A parsed value as prod(base^e), multiplied out only by value(); a
    wedge entry is classed base by base instead. '*', '/' and '^' join or
    scale the factors, unary '-' adds the factor -1 (so that value() builds
    what the value arithmetic builds), and '+' and '-' multiply both sides
    out into one new base (`_expr`), each side first bounded by `degree`.

    `degree` is carried, not re-summed: sum(|e| * degree(base)), a bound on
    the degree of the product multiplied out, which merging only lowers. It
    is computed over the factors for a leaf, by merged() and by unary '-';
    '*' adds the bounds of its sides and '^e' scales the bound by |e|."""

    __slots__ = ("factors", "degree")

    def __init__(self, factors: tuple, degree: int | None = None):
        self.factors = factors
        self.degree = (sum(abs(e) * _degree(b) for b, e in factors)
                       if degree is None else degree)

    @property
    def is_zero(self) -> bool:
        return any(e > 0 and (b == 0 if isinstance(b, Fraction) else b.is_zero)
                   for b, e in self.factors)

    def merged(self) -> "_Product":
        """Each distinct base once, with the sum of its exponents."""
        exps: dict = {}
        for b, e in self.factors:
            exps[b] = exps.get(b, 0) + e
        return _Product(tuple(exps.items()))

    def reduced(self) -> "_Product":
        """Self, or self merged when its degree is above MAX_POWER_DEGREE."""
        return self if self.degree <= MAX_POWER_DEGREE else self.merged()

    def value(self):
        """`reduced()` multiplied out with the value arithmetic, factor by
        factor: never above the merged bound that callers check first."""
        out = None
        for b, e in self.reduced().factors:
            p = b if e == 1 else b ** e
            out = p if out is None else out * p
        return out

    def __neg__(self) -> "_Product":
        one = self.factors[0][0] ** 0
        return _Product(((-one, 1),) + self.factors)

    def __mul__(self, other: "_Product") -> "_Product":
        return _Product(self.factors + other.factors, self.degree + other.degree)

    def __truediv__(self, other: "_Product") -> "_Product":
        return self * other ** -1

    def __pow__(self, e: int) -> "_Product":
        if e < 0 and self.is_zero:
            raise ZeroDivisionError("negative power of zero")
        return _Product(tuple([(b, k * e) for b, k in self.factors]),
                        abs(e) * self.degree)


# A monomial of a univariate run, with the sign before it: UINT, VAR,
# UINT*VAR, VAR^UINT or UINT*VAR^UINT. Its digits are ASCII (a run next to
# any other digit is left to the grammar), and `\s` is str.isspace, the
# whitespace `_Scanner` skips.
_MONOMIAL = re.compile(r"\s*([+-]?)\s*"
                       r"(?:([0-9]+)(?:\s*\*\s*([a-z])(?:\s*\^\s*([0-9]+))?)?"
                       r"|([a-z])(?:\s*\^\s*([0-9]+))?)")
# where an expression ends: its closing bracket, a comma, '=' or the text's end
_RUN_END = re.compile(r"\s*(?=[)\],}=]|\Z)")


def _poly_run(s: _Scanner, ctx: _Ctx) -> _Product | None:
    """A whole expression of two or more monomials in the variable of Q(t)
    or Q(v), joined by '+' or '-' with only a '-' before the first, read
    in one pass straight to integer coefficients: the one base that the
    grammar's sums build from it. None, with s.pos unchanged, for every
    other text, which the grammar then reads (and refuses) as before."""
    if ctx.var is None:
        return None
    text, pos, ints, n = s.text, s.pos, [], 0
    while m := _MONOMIAL.match(text, pos):
        sign, c, var, e, var2, e2 = m.groups()
        if n and not sign:
            break
        var, e = var or var2, e or e2
        if (sign == "+" and not n) or var not in (None, ctx.var):
            return None
        k = int(c) if c else 1
        e = int(e) if e else int(var is not None)
        if e > MAX_POWER_DEGREE:
            return None
        if e >= len(ints):
            ints += [0] * (e + 1 - len(ints))
        ints[e] += -k if sign == "-" else k
        pos, n = m.end(), n + 1
    end = _RUN_END.match(text, pos)
    if n < 2 or end is None:
        return None
    s.pos = end.end()
    return _Product(((RatFunc(UniPoly.over(1, ints), _ONE), 1),))


def _expr(s: _Scanner, ctx: _Ctx) -> _Product:
    val = _poly_run(s, ctx)
    if val is not None:
        return val
    val = _expr_term(s, ctx)
    while s.peek() in ("+", "-"):
        here, op = s.pos, s.text[s.pos]
        s.pos += 1
        other = _expr_term(s, ctx)
        for side in (val, other):
            _bound(side, "sum with a term", here)
        a, b = val.value(), other.value()
        val = _Product(((a + b if op == "+" else a - b, 1),))
    return val


def _expr_term(s: _Scanner, ctx: _Ctx) -> _Product:
    val = _expr_factor(s, ctx)
    while True:
        if s.match("*"):
            val = val * _expr_factor(s, ctx)
        elif s.match("/"):
            here = s.pos
            try:
                val = val / _expr_factor(s, ctx)
            except ZeroDivisionError:
                raise ParseError("division by zero", here) from None
        else:
            return val


def _expr_factor(s: _Scanner, ctx: _Ctx) -> _Product:
    if s.match("-"):
        return -_expr_factor(s, ctx)
    return _expr_power(s, ctx)


def _degree(val) -> int:
    """Degree of a base for the degree bounds; 0 for a constant."""
    if isinstance(val, RatFunc):
        return max(val.num.degree, val.den.degree)
    if isinstance(val, BiFrac):
        return max(p.deg_x + p.deg_y for p in (val.num, val.den))
    return 0


def _rational(val) -> Fraction:
    """The rational number that a constant base stands for."""
    if isinstance(val, BiFrac):
        return val.num.evaluate(0, 0) / val.den.evaluate(0, 0)
    return val.constant_value() if isinstance(val, RatFunc) else val


def _bits(val) -> int:
    """Bit length of the larger of numerator and denominator of a constant
    as written: of both sides of a bivariate one, which is not reduced."""
    if isinstance(val, BiFrac):
        return max(_bits(val.num.evaluate(0, 0)), _bits(val.den.evaluate(0, 0)))
    val = _rational(val)
    return max(val.numerator.bit_length(), val.denominator.bit_length())


def _expr_power(s: _Scanner, ctx: _Ctx) -> _Product:
    base = _expr_primary(s, ctx)
    if s.match("^"):
        neg = s.match("-")
        here = s.pos
        e = s.parse_uint()
        # merged, so that a base that cancels to a constant reads as one
        deg = base.merged().degree
        if deg * e > MAX_POWER_DEGREE:
            raise ParseError(f"power of degree {deg} * {e} is above the limit "
                             f"{MAX_POWER_DEGREE}", here)
        if not deg:
            c = _rational(base.merged().value())
            if _bits(c) * e > MAX_POWER_BITS:
                raise ParseError(f"power of bit length {_bits(c)} * {e} is "
                                 f"above the limit {MAX_POWER_BITS}", here)
            # factors that cancel (3^2048/3^2048) are not raised as written
            if e * sum(abs(k) * _bits(b) for b, k in base.factors
                       if not _degree(b)) > MAX_POWER_BITS:
                base = ctx.const(c)
        try:
            return base ** (-e if neg else e)
        except ZeroDivisionError:
            raise ParseError("negative power of zero", here) from None
    return base


def _expr_primary(s: _Scanner, ctx: _Ctx) -> _Product:
    if s.match("("):
        val = _expr(s, ctx)
        s.expect(")")
        return val
    ch = s.peek()
    if ch.isdigit():
        return ctx.const(s.parse_uint())
    if ch in ctx.variables:
        s.pos += 1
        return ctx.variables[ch]
    s.fail("expected a number, a variable, or a parenthesized expression")


def _bound(val: _Product, what: str, here: int) -> None:
    """Refuse `val` at `here` when its degree bound is above the limit."""
    d = val.reduced().degree
    if d > MAX_POWER_DEGREE:
        raise ParseError(f"{what} of degree {d} is above the limit "
                         f"{MAX_POWER_DEGREE}", here)


def _value(s: _Scanner, ctx: _Ctx):
    """One expression, bounded and then multiplied out: every text but a
    wedge entry."""
    here = s.pos
    val = _expr(s, ctx)
    _bound(val, "expression", here)
    return val.value()


def _finish(s: _Scanner) -> None:
    if not s.at_end():
        s.fail("unexpected trailing text")


def parse_ratfunc(text: str, var: str = "t") -> RatFunc:
    """Rational function in one variable from text like '(3*t-3)/(t-3)'."""
    s = _Scanner(text)
    val = _value(s, _rat_ctx(var))
    _finish(s)
    return val


def parse_bifrac(text: str) -> BiFrac:
    """Ratio of bivariate polynomials from text like '(x-y)/(x*y-1)'."""
    s = _Scanner(text)
    val = _value(s, _ctx_for("Qxy"))
    _finish(s)
    return val


# ---------------------------------------------------------------------------
# wedges
# ---------------------------------------------------------------------------


def _infer_field(text: str, fields: tuple[str, ...]) -> str:
    """The first of `fields` one of whose variables, as FIELD_VARS names
    them, occurs in text, else Qt: the only other letters in wedge or
    symbol text are w and t."""
    for field in fields:
        var = FIELD_VARS[field]
        if any(v in text for v in ([var] if isinstance(var, str) else var)):
            return field
    return "Qt"


def _entry_class(s: _Scanner, reg: AtomRegistry, field: str,
                 ctx: _Ctx) -> MultVec:
    """Class of one entry, one factor at a time: sum of e * class(base).
    Equal bases are merged first, so a factor that cancels is not classed."""
    here = s.pos
    value = _expr(s, ctx)
    if value.is_zero:
        raise ParseError("wedge entry is identically zero", here)
    out: dict = {}
    for base, e in value.merged().factors:
        if e:
            for a, c in mult_vec(base, reg, field).terms:
                out[a] = out.get(a, 0) + e * c
    return MultVec.make(field, out)


def _wedge_item(s: _Scanner, reg: AtomRegistry, field: str) -> Wedge:
    """One unsigned monomial: (RATIONAL '*')? 'w[' entries ']', or a bare
    rational, which is a degree-zero scalar."""
    coeff = Q(1)
    if s.peek().isdigit():
        coeff = s.parse_rational()
        if not s.match("*"):
            return Wedge.scalar(field, coeff)
    s.expect("w")
    s.expect("[")
    ctx = _ctx_for(field)
    vecs = [_entry_class(s, reg, field, ctx)]
    while s.match(","):
        vecs.append(_entry_class(s, reg, field, ctx))
    s.expect("]")
    return expand_products(field, len(vecs), [(coeff, class_factors(vecs))])


def _coeff(s: _Scanner) -> Fraction:
    """The optional `RATIONAL '*'` before a symbol, part or cycle; 1
    without one."""
    if not s.peek().isdigit():
        return Q(1)
    coeff = s.parse_rational()
    s.expect("*")
    return coeff


def _signed_sum(s: _Scanner, parse_item, add):
    """ITEM (('+'|'-') ITEM)* with an optional leading sign."""
    if s.match("-"):
        sign = -1
    else:
        s.match("+")
        sign = 1
    item = parse_item()
    total = item.scale(-1) if sign < 0 else item
    while True:
        if s.match("+"):
            sign = 1
        elif s.match("-"):
            sign = -1
        else:
            return total
        here = s.pos
        item = parse_item()
        try:
            total = add(total, item.scale(-1) if sign < 0 else item)
        except (DegreeMismatch, MixedFields) as e:
            raise ParseError(str(e), here) from None


def _wedge_sum(s: _Scanner, reg: AtomRegistry, field: str) -> Wedge:
    return _signed_sum(s, lambda: _wedge_item(s, reg, field), wedge_add)


def parse_wedge(text: str, reg: AtomRegistry,
                field: str | None = None) -> Wedge:
    """Wedge from text like '-w[t-3, t-1, t]' or '2*w[5, t] + w[3, t-1]'.

    Entries are arbitrary nonzero expressions; each is replaced by its
    multiplicative class, so 'w[6, t]' means (class 2 + class 3) ^ class t.
    An entry's products, quotients and powers are classed one factor at a
    time and never multiplied out.
    The coefficient field is inferred from the variables present unless
    given explicitly. A bare rational is a degree-zero scalar.
    """
    if field is None:
        field = _infer_field(text, ("Qxy", "Qv"))
    s = _Scanner(text)
    total = _wedge_sum(s, reg, field)
    _finish(s)
    return total


# ---------------------------------------------------------------------------
# weight-two symbols
# ---------------------------------------------------------------------------


def _gamma_item(s: _Scanner, reg: AtomRegistry, field: str) -> GammaSub:
    coeff = _coeff(s)
    s.expect("{")
    x = _value(s, _ctx_for(field))
    s.expect("}")
    if not s.match("_2"):
        s.expect("₂")
    if s.match("⊗") or s.match("(x)") or s.match("@"):
        tail = _wedge_item(s, reg, field)
    else:
        tail = Wedge.scalar(field, 1)
    return gamma_term(coeff, x, tail)


def parse_gamma(text: str, reg: AtomRegistry,
                field: str | None = None) -> GammaSub:
    """Weight-two element from text like '-{(3*t-3)/(t-3)}_2 ⊗ w[t-3]'.

    The tensor marker may be written ⊗, (x), or @; a term without one has
    a scalar tail. Arguments of 0 or 1 raise DegenerateArgument.
    """
    if field is None:
        field = _infer_field(text, ("Qv",))  # "(x)" may mark the tensor
    s = _Scanner(text)
    if s.match("0"):
        if s.at_end():
            return GammaSub.zero(field, 0)
        s.pos = 0
    total = _signed_sum(s, lambda: _gamma_item(s, reg, field), gamma_add)
    _finish(s)
    return total


# ---------------------------------------------------------------------------
# graded elements
# ---------------------------------------------------------------------------

_PART_SHAPE = {"S": ("Qxy", 2, "surface"), "P1": ("Qt", 1, "curve"),
               "pt": ("Q", 0, "point")}


def parse_element(text: str, reg: AtomRegistry) -> LambdaElem:
    """Graded element from text like 'm=2; [S: w[x-1, y-2, x-y, 5]]'.

    Parts are bracketed, tagged S, P1, or pt, and joined by '+' or '-'
    after an optional leading sign; their degrees must be m+2, m+1, and m.
    'm=2; 0' is the zero element.
    """
    s = _Scanner(text)
    s.expect("m")
    s.expect("=")
    m = s.parse_uint()
    s.expect(";")
    if s.match("0"):
        _finish(s)
        return LambdaElem.zero(m)

    def epart() -> LambdaElem:
        coeff = _coeff(s)
        s.expect("[")
        for tag in ("S", "P1", "pt"):
            if s.match(tag):
                break
        else:
            s.fail("expected S, P1, or pt")
        s.expect(":")
        field, shift, name = _PART_SHAPE[tag]
        here = s.pos
        w = _wedge_sum(s, reg, field)
        s.expect("]")
        if w.is_zero and w.degree == 0:
            w = Wedge.zero(field, m + shift)
        if w.degree != m + shift:
            raise ParseError(
                f"{tag} part must have degree {m + shift}, got {w.degree}",
                here)
        return LambdaElem.make(
            m, **{name: w.scale(coeff) if coeff != 1 else w})

    total = _signed_sum(s, epart, LambdaElem.add)
    _finish(s)
    return total


# ---------------------------------------------------------------------------
# cube cycles
# ---------------------------------------------------------------------------


def parse_cycle(text: str) -> CubeCurve:
    """Cube curve from text like 'cyc[t, (t-2)/(t-3)]', with an optional
    sign and rational coefficient prefix."""
    s = _Scanner(text)
    sign = -1 if s.match("-") else 1
    coeff = _coeff(s)
    s.expect("cyc")
    s.expect("[")
    ctx = _rat_ctx("t")
    coords = [_value(s, ctx)]
    while s.match(","):
        coords.append(_value(s, ctx))
    s.expect("]")
    _finish(s)
    return CubeCurve.make(coords, sign * coeff)


# ---------------------------------------------------------------------------
# places and divisors
# ---------------------------------------------------------------------------


def parse_place(text: str) -> Place1:
    """Place of the rational function field: 't=3', 't=-1/2', 't=inf', or
    an irreducible equation like 't^2+1=0'.

    Equation input is normalized to monic; degree one folds into the
    rational-point form. Reducible equations are rejected.
    """
    s = _Scanner(text)
    if s.match("t"):
        if s.match("="):
            if s.match("inf"):
                _finish(s)
                return INFINITY
            sign = -1 if s.match("-") else 1
            c = s.parse_rational()
            _finish(s)
            return FinRat(sign * c)
        s.pos = 0
    f = _value(s, _rat_ctx("t"))
    s.expect("=")
    s.expect("0")
    _finish(s)
    if f.den.degree != 0:
        s.fail("a place equation must be polynomial")
    poly = f.num
    if poly.degree < 1:
        s.fail("a place equation needs a nonconstant polynomial")
    poly = poly.monic()
    if poly.degree == 1:
        return FinRat(-poly.coeff(0))
    if not irreducible_check_uni(poly):
        s.fail(f"{poly_str(poly, 't')} is reducible, so it does not cut "
               "out a single place")
    return IrredPlace(poly)


def parse_divisor(text: str) -> SurfDivisor:
    """Divisor on the product surface: 'x=3', 'y=-1/2', 'x=inf', 'y=inf',
    or a graph like 'y=(x+3)/(x-1)' or 'x=y^2-1'."""
    s = _Scanner(text)
    if s.match("x"):
        which = "x"
    elif s.match("y"):
        which = "y"
    else:
        s.fail("expected x=... or y=...")
    s.expect("=")
    if s.match("inf"):
        _finish(s)
        return LineInf(which)
    f = _value(s, _rat_ctx("y" if which == "x" else "x"))
    _finish(s)
    return solved_divisor(which, f)
