"""Seeded input generators for the three workloads.

Every generator takes a random.Random derived from the workload seed and
the round number, and returns plain data: integer coefficient lists with a
known factorisation, DSL texts, and the facts the checks need. Nothing
here imports tamesym; the worker turns these specs into program inputs.

Coefficient ranges are small on purpose: the program factors integer
constants by trial division, and the values it meets stay below about
1e8 so that no operation runs into that known hang.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import refmath as rm

Q = Fraction

SUITE_CRITERIA = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")
SUITE_SCALE = 2
SUITE_SEEDS_PER_ROUND = 23          # 23 * 9 = 207 operations per round
FACTOR_GENERATED_PER_ROUND = 60

PLACE_POOL = sorted({Q(a, b) for a in range(-4, 5) for b in (1, 2, 3)})


def round_rng(workload: str, seed: int, round_idx: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_idx}")


# ---------------------------------------------------------------------------
# irreducible factors, certified by construction
# ---------------------------------------------------------------------------


def linear(rng: random.Random, avoid: set) -> list[int]:
    """b*t - a for a fresh root a/b."""
    while True:
        root = Q(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3)))
        if root not in avoid:
            avoid.add(root)
            return [-root.numerator, root.denominator]


def quadratic(rng: random.Random) -> list[int]:
    """a*t^2 + b*t + c with b^2 - 4ac not a square (math.isqrt)."""
    while True:
        cs = [rng.choice([c for c in range(-7, 8) if c]), rng.randint(-5, 5),
              rng.choice((1, 1, 1, 2, 3))]
        if rm.quadratic_irreducible(cs):
            return cs


def cubic(rng: random.Random) -> list[int]:
    """Cubic with no rational root (rational-root test)."""
    while True:
        cs = [rng.choice([c for c in range(-7, 8) if c]), rng.randint(-4, 4),
              rng.randint(-4, 4), rng.choice((1, 1, 2))]
        if rm.cubic_irreducible(cs):
            return cs


def eisenstein(rng: random.Random, degree: int) -> list[int]:
    """Eisenstein polynomial at p in {2, 3, 5, 7}.

    From degree 5 on it must also stay irreducible modulo a prime below
    100; the program's factor-degree-pattern certifier provably decides
    such polynomials, so the random corpus never meets a refusal that
    depends on the seed.
    """
    while True:
        p = rng.choice((2, 3, 5, 7))
        lead = rng.choice([c for c in (1, 1, 1, 2, 3) if c % p])
        unit = rng.choice([u for u in (-3, -2, -1, 1, 2, 3) if u % p])
        cs = [p * unit] + [p * rng.randint(-2, 2) for _ in range(degree - 1)] + [lead]
        assert rm.eisenstein_prime(cs) is not None
        if degree < 5 or rm.irreducible_mod_small_prime(cs):
            return cs


def of_degree(rng: random.Random, degree: int) -> list[int]:
    if degree == 2:
        return quadratic(rng)
    if degree == 3 and rng.random() < 0.5:
        return cubic(rng)
    return eisenstein(rng, degree)


def nonlinear(rng: random.Random, kinds: tuple[str, ...]) -> list[int]:
    kind = rng.choice(kinds)
    if kind == "quadratic":
        return quadratic(rng)
    if kind == "cubic":
        return cubic(rng)
    if kind == "quartic":
        return eisenstein(rng, 4)
    return eisenstein(rng, rng.randint(3, 8))


# ---------------------------------------------------------------------------
# rational functions of t with a known factorisation
# ---------------------------------------------------------------------------


@dataclass
class UniSpec:
    """const * prod(q^e) with distinct irreducible integer q and e != 0."""

    const: Fraction
    factors: list[tuple[list[int], int]] = field(default_factory=list)

    def text(self, var: str = "t") -> str:
        def power(cs, e):
            body = f"({rm.poly_text(cs, var)})"
            return body if e == 1 else f"{body}^{e}"
        num = [power(cs, e) for cs, e in self.factors if e > 0]
        den = [power(cs, -e) for cs, e in self.factors if e < 0]
        out = "*".join([str(self.const)] + num)
        if den:
            out += "/(" + "*".join(den) + ")"
        return out

    def expected_class(self) -> dict:
        """Atom key -> exponent: ("p", prime) and ("u", monic coeffs)."""
        k = Q(self.const)
        out: dict = {}
        for cs, e in self.factors:
            k *= Q(cs[-1]) ** e
            rm.add_class(out, {("u", rm.monic(cs)): 1}, e)
        rm.add_class(out, {("p", p): e for p, e in rm.rational_class(k).items()})
        return out

    def linear_roots(self) -> list[Fraction]:
        return [Q(-cs[0], cs[1]) for cs, _ in self.factors if len(cs) == 2]


def rand_const(rng: random.Random) -> Fraction:
    return Q(rng.choice((-3, -2, -1, 1, 2, 3, 5, 7)), rng.choice((1, 1, 2, 3, 4)))


def uni_function(rng: random.Random, n_linear: int, n_nonlinear: int,
                 kinds: tuple[str, ...], max_exp: int, avoid: set) -> UniSpec:
    """A function whose numerator and denominator each give every
    multiplicity at most one nonlinear irreducible, so the squarefree slices
    the program meets are linear factors times one certified irreducible."""
    spec = UniSpec(rand_const(rng))
    for _ in range(n_linear):
        spec.factors.append((linear(rng, avoid),
                             rng.choice((1, -1)) * rng.randint(1, max_exp)))
    slots = [s * e for e in range(1, max_exp + 1) for s in (1, -1)]
    rng.shuffle(slots)
    seen = set()
    for e in slots[:n_nonlinear]:
        while True:
            cs = nonlinear(rng, kinds)
            key = rm.monic(cs)
            if key not in seen:
                seen.add(key)
                break
        spec.factors.append((cs, e))
    return spec


def shaped_function(rng: random.Random, n_linear: int,
                    shape: tuple[tuple[int, int], ...]) -> UniSpec:
    """Random coefficients on a fixed shape: n_linear linear factors with
    random exponents, and one nonlinear irreducible per (degree, signed
    exponent) pair of the shape, the signed exponents all distinct."""
    spec = UniSpec(rand_const(rng))
    avoid: set = set()
    for _ in range(n_linear):
        spec.factors.append((linear(rng, avoid),
                             rng.choice((1, -1)) * rng.randint(1, 3)))
    seen = set()
    for degree, e in shape:
        while True:
            cs = of_degree(rng, degree)
            if rm.monic(cs) not in seen:
                seen.add(rm.monic(cs))
                break
        spec.factors.append((cs, e))
    return spec


# Shapes of the factor workload's univariate inputs: (linear factors,
# ((degree, signed exponent), ...)). Cycling through fixed shapes keeps
# every round's degree profile the same, so round times differ only by
# coefficients. Numerators and denominators reach degree 25-30; the suite
# never passes 4.
FACTOR_SHAPES = (
    (2, ((2, 1), (3, 2), (5, -1))),
    (3, ((4, 1), (2, -2), (6, 3))),
    (4, ((8, 1), (3, -1), (2, 2))),
    (3, ((7, -1), (2, 1), (4, 2), (3, -2))),
    (2, ((5, 2), (6, -1), (2, 3))),
    (5, ((3, 1), (2, -1), (8, -2), (4, 3))),
)


def split_function(rng: random.Random, n_linear: int, avoid: set) -> UniSpec:
    spec = UniSpec(rand_const(rng))
    for _ in range(n_linear):
        spec.factors.append((linear(rng, avoid), rng.choice((1, 1, 2, -1, -2))))
    return spec


# ---------------------------------------------------------------------------
# bivariate functions: pieces linear in x or in y, times univariate factors
# ---------------------------------------------------------------------------


@dataclass
class BiSpec:
    """const * prod(piece^e): pieces are {(i, j): int} polynomials, either
    linear in one variable with a constant coefficient there (so primitive,
    hence irreducible) or univariate in x or y and certified as above."""

    const: Fraction
    factors: list[tuple[dict, int]] = field(default_factory=list)

    def expected_class(self) -> dict:
        k = Q(self.const)
        out: dict = {}
        for poly, e in self.factors:
            content, key = rm.bi_primitive(poly)
            k *= Q(content) ** e
            rm.add_class(out, {("b", key): 1}, e)
        rm.add_class(out, {("p", p): e for p, e in rm.rational_class(k).items()})
        return out


def _linear_piece(rng: random.Random, var: str) -> dict:
    """a*var + b(other) with a a nonzero constant and deg b in 1..3."""
    other = "y" if var == "x" else "x"
    b = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
    b.append(rng.choice((1, -1, 2, 3)))
    poly = rm.bi_from_uni(b, other)
    key = (1, 0) if var == "x" else (0, 1)
    poly[key] = poly.get(key, 0) + rng.choice((1, -1, 2, -3))
    return poly


def bi_function(rng: random.Random) -> BiSpec:
    """One piece in the numerator and one in the denominator, each with
    univariate factors in x and y.

    A piece linear in y but of degree >= 2 in x never shares its
    polynomial with factors in y: the program refuses that combination
    (see the named input (y-x^2)*(y-3) in named_faults).
    """
    spec = BiSpec(rand_const(rng))
    for sign in (1, -1):
        var = rng.choice(("x", "y"))
        piece = _linear_piece(rng, var)
        spec.factors.append((piece, sign))
        y_allowed = var == "x" or max(i for i, _ in piece) <= 1
        for uvar in ("x", "y") if y_allowed else ("x",):
            f = uni_function(rng, 1, 1, ("quadratic", "cubic", "eisenstein"),
                             2, set())
            for cs, e in f.factors:
                spec.factors.append((rm.bi_from_uni(cs, uvar), sign * abs(e)))
    return spec


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------


def suite_round(seed: int, round_idx: int) -> list[tuple[str, int, int]]:
    """(criterion, corpus seed, scale) for every criterion over the round's
    corpus seeds."""
    rng = round_rng("suite", seed, round_idx)
    seeds = [rng.randrange(10**9) for _ in range(SUITE_SEEDS_PER_ROUND)]
    return [(cid, s, SUITE_SCALE) for s in seeds for cid in SUITE_CRITERIA]


@dataclass
class FactorOp:
    name: str
    kind: str                 # "uni" or "bi"
    specs: list               # one spec per mult_vec call, same registry
    known_fault: str = ""     # why it fails today, for the named inputs


def factor_round(seed: int, round_idx: int) -> list[FactorOp]:
    rng = round_rng("factor", seed, round_idx)
    ops = []
    for i in range(FACTOR_GENERATED_PER_ROUND):
        if i % 4 == 3:
            ops.append(FactorOp(f"bi{i}", "bi", [bi_function(rng)]))
        else:
            n_linear, shape = FACTOR_SHAPES[i % len(FACTOR_SHAPES)]
            spec = shaped_function(rng, n_linear, shape)
            ops.append(FactorOp(f"uni{i}", "uni", [spec]))
    return ops + named_faults()


def named_faults() -> list[FactorOp]:
    """Fixed inputs that fail today, counted as failures until mended.

    Each expected answer is known by construction, so a mended program
    passes them without any change here.
    """
    big = 10**17 + 1
    x2_minus_y = {(0, 1): 1, (2, 0): -1}
    return [
        FactorOp("t^6+1", "uni",
                 [UniSpec(Q(1), [([1, 0, 1], 1), ([1, 0, -1, 0, 1], 1)])],
                 "factor_uni has no complete factoriser"),
        FactorOp("(t^2+t+1)*(t^3+3*t+3)", "uni",
                 [UniSpec(Q(1), [([1, 1, 1], 1), ([3, 3, 0, 1], 1)])],
                 "factor_uni has no complete factoriser"),
        FactorOp("(t^2+A*t+1)*(t^2+(7-A)*t+3), A=10^17+1", "uni",
                 [UniSpec(Q(1), [([1, big, 1], 1), ([3, 7 - big, 1], 1)])],
                 "_int_sqrt takes a float square root"),
        FactorOp("y-x^2 then (y-x^2)*(x-y^2)", "bi",
                 [BiSpec(Q(1), [(x2_minus_y, 1)]),
                  BiSpec(Q(1), [(x2_minus_y, 1), ({(1, 0): 1, (0, 2): -1}, 1)])],
                 "factor_bipoly does not recheck the leftover after trial division"),
        FactorOp("(y-x^2)*(y-3)", "bi",
                 [BiSpec(Q(1), [(x2_minus_y, 1), ({(0, 1): 1, (0, 0): -3}, 1)])],
                 "factor_bipoly does not recheck linearity in y after "
                 "removing the content in y"),
    ]


# -- session texts ----------------------------------------------------------


@dataclass
class SessionOp:
    verb: str
    text: str
    place: str = ""
    facts: dict = field(default_factory=dict)
    known_fault: str = ""     # why it fails today, for the named inputs

    @property
    def name(self) -> str:
        return f"{self.verb} {self.text}"


# texts of each verb in every session round (240 in all, plus the named
# failing texts); only their order is drawn, so every round has the same mix
SESSION_MIX = (("ts", 96), ("weil", 24), ("delta", 24), ("five_term", 20),
               ("decompose", 24), ("h", 20), ("dd2", 16), ("snc", 16))


def _lin_text(var: str, root: Fraction) -> str:
    return rm.poly_text([-root, 1], var)


def _ts_op(rng: random.Random) -> SessionOp:
    avoid: set = set()
    kinds = ("quadratic", "cubic", "quartic", "eisenstein")
    f = uni_function(rng, rng.randint(1, 2), rng.randint(1, 2), kinds, 2, avoid)
    g = uni_function(rng, rng.randint(1, 2), rng.randint(1, 2), kinds, 2, avoid)
    roots = f.linear_roots() + g.linear_roots()
    place = rng.choice(roots) if rng.random() < 0.8 else rng.choice(PLACE_POOL)
    if place in roots and rng.random() < 0.5:
        # both slots have nonzero order at the place
        other = g if place in f.linear_roots() else f
        other.factors.append(([-place.numerator, place.denominator],
                              rng.choice((1, 2, -1, -2))))
    return SessionOp("ts", f"w[{f.text()}, {g.text()}]", f"t={place}",
                     {"f": f, "g": g, "place": place,
                      "swapped": f"w[{g.text()}, {f.text()}]"})


def _weil_op(rng: random.Random) -> SessionOp:
    avoid: set = set()
    f = split_function(rng, rng.randint(1, 3), avoid)
    g = split_function(rng, rng.randint(1, 3), avoid)
    return SessionOp("weil", f"w[{f.text()}, {g.text()}]")


def _split_slot(rng: random.Random) -> str:
    """Slot for split wedges: constant * linear, a ratio of linears, or a
    constant."""
    r = rng.random()
    c = rand_const(rng)
    a = Q(rng.randint(-6, 6), rng.choice((1, 1, 2)))
    if r < 0.6:
        return f"{c}*({_lin_text('t', a)})"
    if r < 0.8:
        b = a
        while b == a:
            b = Q(rng.randint(-6, 6))
        return f"{c}*({_lin_text('t', a)})/({_lin_text('t', b)})"
    return str(abs(c) if abs(c) != 1 else 5)


def _gamma_arg(rng: random.Random) -> str:
    if rng.random() < 0.4:
        while True:
            x = Q(rng.randint(-9, 9), rng.randint(1, 4))
            if x not in (0, 1):
                return str(x)
    a, b = rng.sample(range(-6, 7), 2)
    lam = rand_const(rng)
    return f"{lam}*({_lin_text('t', Q(a))})/({_lin_text('t', Q(b))})"


def _delta_op(rng: random.Random) -> SessionOp:
    tail_degree = rng.randint(0, 2)
    items, formula = [], []
    for i in range(rng.randint(1, 2)):
        sign = rng.choice(("+", "-")) if i else rng.choice(("", "-"))
        coeff = Q(rng.randint(1, 5), rng.choice((1, 1, 2)))
        x = _gamma_arg(rng)
        tail = [_split_slot(rng) for _ in range(tail_degree)]
        gap = " " if i else ""
        item = f"{sign}{gap}{coeff}*{{{x}}}_2"
        if tail:
            item += " ⊗ w[" + ", ".join(tail) + "]"
        items.append(item)
        formula.append(f"{sign}{gap}{coeff}*w[" + ", ".join(
            [x, f"1-({x})"] + tail) + "]")
    return SessionOp("delta", " ".join(items), facts={"formula": " ".join(formula)})


FIVE_POOL = [str(Q(v, d)) for v in range(-8, 9) for d in (1, 2, 3)]


def _five_term_op(rng: random.Random) -> SessionOp:
    pool = sorted(set(FIVE_POOL)) + ["inf"]
    pts = rng.sample(pool, 5)
    return SessionOp("five_term", " ".join(f"t={p}" for p in pts))


def _split_wedge_text(rng: random.Random) -> str:
    return "w[" + ", ".join(_split_slot(rng) for _ in range(rng.randint(3, 4))) + "]"


def _decompose_op(rng: random.Random) -> SessionOp:
    return SessionOp("decompose", _split_wedge_text(rng))


def _h_op(rng: random.Random) -> SessionOp:
    return SessionOp("h", _split_wedge_text(rng))


# -- line and graph arrangements -------------------------------------------


def curve_slot(cv) -> str:
    """Defining equation of a curve as a wedge entry over Q(x, y)."""
    if cv[0] == "V":
        return _lin_text("x", cv[1])
    if cv[0] == "H":
        return _lin_text("y", cv[1])
    if cv[0] == "S":
        return "y-(" + rm.poly_text([cv[2], cv[1]], "x") + ")"
    return "y-(" + rm.poly_text([cv[1], 0, 1], "x") + ")"


def _small(rng: random.Random) -> Fraction:
    return Q(rng.randint(-5, 5), rng.choice((1, 1, 2)))


def _rand_curve(rng: random.Random, kinds: str):
    kind = rng.choice(kinds)
    if kind == "V":
        return ("V", _small(rng))
    if kind == "H":
        return ("H", _small(rng))
    m = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
    return ("S", m, _small(rng))


def arrangement(rng: random.Random, snc: bool) -> list:
    """Lines in general position for dd2 (snc=True); for the snc verb, lines
    with constructed triple points, parallel pairs and a parabola with a
    tangent line added (snc=False)."""
    while True:
        curves: list = []
        n = rng.randint(2, 4) if snc else rng.randint(2, 3)
        while len(curves) < n:
            cv = _rand_curve(rng, "VHS" if snc else "VHSS")
            if cv not in curves:
                curves.append(cv)
        if not snc:
            extra = rng.choice(("triple", "parallel", "parabola", "mixed"))
            if extra in ("triple", "mixed"):
                x0, y0 = _small(rng), _small(rng)
                m = Q(rng.choice((1, -1, 2, -2)))
                curves += [("V", x0), ("H", y0), ("S", m, y0 - m * x0)]
            if extra in ("parallel", "mixed"):
                s = next((cv for cv in curves if cv[0] == "S"), None)
                if s is not None:
                    curves.append(("S", s[1], s[2] + rng.choice((1, 2, -1))))
            if extra in ("parabola", "mixed"):
                c0, a = _small(rng), Q(rng.randint(-3, 3))
                curves += [("P", c0), ("S", 2 * a, c0 - a * a) if a else ("H", c0)]
        curves = list(dict.fromkeys(curves))
        problems = rm.snc_problems(curves)
        # d^2 comes out nonzero on some configurations with two slanted
        # lines that the checker calls strictly regular, so the random dd2
        # texts keep to one slanted line, as the suite's C3 does; one such
        # configuration runs every round (session_named_faults)
        slanted = sum(1 for cv in curves if cv[0] in "SP")
        if snc and (problems or slanted > 1):
            continue
        if not snc and not problems:
            continue
        return curves


def _dd2_op(rng: random.Random) -> SessionOp:
    curves = arrangement(rng, snc=True)
    m = rng.randint(1, 2)
    slots = [curve_slot(cv) for cv in curves][: m + 2]
    while len(slots) < m + 2:
        slots.append(str(rng.choice((2, 3, 5, 7))))
    rng.shuffle(slots)
    text = f"m={m}; [S: w[" + ", ".join(slots) + "]]"
    if rng.random() < 0.5:
        curve = [_split_slot(rng) for _ in range(m + 1)]
        text += " + [P1: w[" + ", ".join(curve) + "]]"
    return SessionOp("dd2", text, facts={"m": m})


def _snc_op(rng: random.Random) -> SessionOp:
    curves = arrangement(rng, snc=False)
    order = list(curves)
    rng.shuffle(order)
    text = "w[" + ", ".join(curve_slot(cv) for cv in order) + "]"
    return SessionOp("snc", text, facts={"problems": rm.snc_problems(curves)})


_SESSION_MAKERS = {"ts": _ts_op, "weil": _weil_op, "delta": _delta_op,
                   "five_term": _five_term_op, "decompose": _decompose_op,
                   "h": _h_op, "dd2": _dd2_op, "snc": _snc_op}


def session_round(seed: int, round_idx: int) -> list[SessionOp]:
    rng = round_rng("session", seed, round_idx)
    verbs = [v for v, n in SESSION_MIX for _ in range(n)]
    rng.shuffle(verbs)
    return [_SESSION_MAKERS[v](rng) for v in verbs] + session_named_faults()


def session_named_faults() -> list[SessionOp]:
    """Fixed texts that fail today, run last in every round's registry and
    counted as failures until mended; the correct answer is d^2 = 0."""
    return [SessionOp("dd2", "m=2; [S: w[y+x-2, y-2*x+1, x+1, y]]",
                      facts={"m": 2},
                      known_fault="d^2 is nonzero on two slanted lines that "
                                  "snc_check calls strictly regular")]
