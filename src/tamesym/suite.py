"""Acceptance corpora and criterion runners behind the `suite` verb.

Every corpus comes from a seeded generator, every check is exact, and the
report carries no timings, so output for a given seed is byte-stable. The
criterion identifiers C1..C10 are the rows of the printed table; the same
runners back the acceptance tests, which add the runtime budgets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .atoms import AtomRegistry, mult_vec
from .chow import (CubeCurve, admissible_check, cube_boundary,
                   w_commutes_check, w_map_curve)
from .errors import NotAdmissible
from .expressions import INF, BiFrac, RatFunc
from .gamma import delta, five_term, gamma_add, gamma_term
from .homotopy import (decomp_certificate, decompose, h_map,
                       homotopy_check_sub, homotopy_check_top)
from .lambda_complex import (LambdaElem, bs_vanishing_check, d_squared_check,
                             differential, parshin_check, totaro_element,
                             totaro_wedge)
from .places import ExceptionalCurve, tame_symbol, weil_sum
from .polynomials import BiPoly
from .wedges import Wedge, retag, wedge_of

Q = Fraction


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    title: str
    ok: bool
    detail: str


def _scaled(n: int, scale: int) -> int:
    return max(1, (n * scale) // 100)


def _rand_rational(rng: random.Random, avoid=()) -> Fraction:
    while True:
        c = Q(rng.randint(-9, 9), rng.randint(1, 4))
        if c != 0 and c not in avoid:
            return c


def _rand_constant(rng: random.Random) -> Fraction:
    # multiplicatively interesting: nonzero, not a root of unity
    return _rand_rational(rng, avoid=(0, 1, -1))


def _split_ratfunc(rng: random.Random) -> RatFunc:
    """Nonzero product of at most four linear factors, with signed
    exponents and a random constant in front."""
    t = RatFunc.var()
    f = RatFunc.const(_rand_rational(rng))
    for r in rng.sample(range(-6, 7), rng.randint(1, 4)):
        factor = t - RatFunc.const(r)
        f = f * factor if rng.random() < 0.7 else f / factor
    return f


def _split_slot(rng: random.Random, reg: AtomRegistry):
    """A wedge slot for the homotopy corpora: a scaled linear polynomial
    most of the time, a bare constant otherwise."""
    if rng.random() < 0.8:
        t = RatFunc.var()
        f = (t - RatFunc.const(rng.randint(-6, 6))) \
            * RatFunc.const(_rand_rational(rng))
        return mult_vec(f, reg)
    return mult_vec(_rand_constant(rng), reg, "Qt")


def _split_wedge(rng: random.Random, reg: AtomRegistry, degree: int) -> Wedge:
    return wedge_of([_split_slot(rng, reg) for _ in range(degree)])


def _const_wedge(rng: random.Random, reg: AtomRegistry, degree: int,
                 field: str = "Q") -> Wedge:
    if degree == 0:
        return Wedge.scalar(field, 1)
    return wedge_of([mult_vec(_rand_constant(rng), reg, field)
                     for _ in range(degree)])


# ---------------------------------------------------------------------------
# criterion runners
# ---------------------------------------------------------------------------


def _run_c1(rng: random.Random, scale: int) -> tuple[bool, str]:
    n = _scaled(20, scale)
    good = 0
    for i in range(n):
        reg = AtomRegistry()
        m = 2 + i % 3
        a = _rand_rational(rng, avoid=(0, 1))
        consts = [_rand_constant(rng) for _ in range(m - 2)]
        got = differential(totaro_element(a, consts, reg), reg)
        slots = [mult_vec(a, reg, "Q"), mult_vec(1 - a, reg, "Q")]
        slots += [mult_vec(c, reg, "Q") for c in consts]
        want = LambdaElem.make(m, point=wedge_of(slots))
        if got == want:
            good += 1
    return good == n, f"{good}/{n} cases"


def _run_c2(rng: random.Random, scale: int) -> tuple[bool, str]:
    n = _scaled(100, scale)
    good = 0
    for _ in range(n):
        reg = AtomRegistry()
        w = wedge_of([mult_vec(_split_ratfunc(rng), reg),
                      mult_vec(_split_ratfunc(rng), reg)])
        if weil_sum(w, reg).is_zero:
            good += 1
    return good == n, f"{good}/{n} cases"


def _run_c3(rng: random.Random, scale: int) -> tuple[bool, str]:
    n = _scaled(50, scale)
    good = 0
    x = BiFrac.make(BiPoly.var_x())
    y = BiFrac.make(BiPoly.var_y())
    for i in range(n):
        reg = AtomRegistry()
        m = 2 + i % 2
        while True:
            a = rng.randint(-5, 5)
            b = rng.randint(-5, 5)
            c = rng.randint(-5, 5)
            if b != a + c:  # a triple point otherwise
                break
        slots = [mult_vec(x - BiFrac.const(a), reg),
                 mult_vec(y - BiFrac.const(b), reg),
                 mult_vec(x - y + BiFrac.const(c), reg)]
        slots += [mult_vec(_rand_constant(rng), reg, "Qxy")
                  for _ in range(m - 1)]
        w = wedge_of(slots)
        e = LambdaElem.make(m, surface=w)
        if d_squared_check(e, reg).is_zero and parshin_check(w, reg).ok:
            good += 1
    return good == n, f"{good}/{n} cases"


def _run_c4(rng: random.Random, scale: int) -> tuple[bool, str]:
    n = _scaled(50, scale)
    pool = [Q(v, d) for v in range(-8, 9) for d in (1, 2, 3)]
    pool = sorted(set(pool)) + [INF]
    good = 0
    for _ in range(n):
        reg = AtomRegistry()
        tup = rng.sample(pool, 5)
        if delta(five_term(*tup), reg).is_zero:
            good += 1
    return good == n, f"{good}/{n} cases"


def _chow_curve(rng: random.Random, reg: AtomRegistry) -> CubeCurve:
    """Admissible curve in the 4-cube whose boundary is split and avoids
    coordinate value 1 (flagged points are excluded from the corpus)."""
    t = RatFunc.var()
    while True:
        n = rng.randint(2, 4)
        k = rng.randint(1, n)  # nonconstant coordinates
        roots = iter(rng.sample(range(-9, 10), 9))
        coords: list = []
        poly_used = False
        for i in range(n):
            if i < k:
                if not poly_used and rng.random() < 0.4:
                    poly_used = True
                    coords.append((t - RatFunc.const(next(roots)))
                                  * RatFunc.const(_rand_constant(rng)))
                else:
                    a, b = next(roots), next(roots)
                    coords.append(RatFunc.const(_rand_constant(rng))
                                  * (t - RatFunc.const(a))
                                  / (t - RatFunc.const(b)))
            else:
                coords.append(RatFunc.const(_rand_constant(rng)))
        rng.shuffle(coords)
        z = CubeCurve.make(coords, 1)
        if not admissible_check(z)[0]:
            continue
        if any(p.touches_one for p in cube_boundary(z, reg)):
            continue
        return z


def _run_c5(rng: random.Random, scale: int) -> tuple[bool, str]:
    n = _scaled(30, scale)
    good = 0
    for _ in range(n):
        reg = AtomRegistry()
        if w_commutes_check(_chow_curve(rng, reg), reg).ok:
            good += 1
    # the documented gap: W is defined on this curve, its boundary is not
    reg = AtomRegistry()
    t = RatFunc.var()
    one = RatFunc.const(1)
    bad = CubeCurve.make([t, one - t, one - RatFunc.const(3) / t], 1)
    gap_ok = not admissible_check(bad)[0]
    gap_ok = gap_ok and isinstance(w_map_curve(bad, reg), LambdaElem)
    try:
        cube_boundary(bad, reg)
        gap_ok = False
    except NotAdmissible:
        pass
    return good == n and gap_ok, \
        f"{good}/{n} cases + non-admissible example"


def _gamma_element(rng: random.Random, reg: AtomRegistry, m: int):
    t = RatFunc.var()
    total = None
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            x = _rand_rational(rng, avoid=(0, 1))
        else:
            a, b = rng.sample(range(-6, 7), 2)
            x = RatFunc.const(_rand_constant(rng)) \
                * (t - RatFunc.const(a)) / (t - RatFunc.const(b))
        if m == 2:
            tail = Wedge.scalar("Qt", 1)
        else:
            slots = []
            for _ in range(m - 2):
                if rng.random() < 0.5:
                    slots.append(mult_vec(_rand_constant(rng), reg, "Qt"))
                else:
                    slots.append(mult_vec(
                        t - RatFunc.const(rng.randint(-6, 6)), reg))
            tail = wedge_of(slots)
        term = gamma_term(_rand_rational(rng), x, tail)
        total = term if total is None else gamma_add(total, term)
    return total


def _run_c6(rng: random.Random, scale: int) -> tuple[bool, str]:
    n_top = _scaled(100, scale)
    good_top = 0
    for i in range(n_top):
        reg = AtomRegistry()
        m = 2 + i % 2
        if homotopy_check_top(_split_wedge(rng, reg, m + 1), reg).ok:
            good_top += 1
    n_sub = _scaled(100, scale)
    good_sub = 0
    for i in range(n_sub):
        reg = AtomRegistry()
        m = 2 + i % 3
        if homotopy_check_sub(_gamma_element(rng, reg, m), reg).ok:
            good_sub += 1
    # the pinned value: h carries the named curve wedge to -{a}_2 (x) cbar
    named_ok = True
    for a, consts in ((Q(3), ()), (Q(5), (Q(7),))):
        reg = AtomRegistry()
        got = h_map(totaro_wedge(a, consts, reg), reg)
        tail = _const_wedge_from(consts, reg)
        if got != gamma_term(-1, a, tail):
            named_ok = False
    ok = good_top == n_top and good_sub == n_sub and named_ok
    return ok, f"{good_top}/{n_top} lower + {good_sub}/{n_sub} upper + named value"


def _const_wedge_from(consts, reg: AtomRegistry) -> Wedge:
    # h lands over the residue field, so the expected tail lives over Q
    if not consts:
        return Wedge.scalar("Q", 1)
    return wedge_of([mult_vec(Q(c), reg, "Q") for c in consts])


def _run_c7(rng: random.Random, scale: int) -> tuple[bool, str]:
    n = _scaled(200, scale)
    good = 0
    for i in range(n):
        reg = AtomRegistry()
        m = 2 + i % 2
        w = _split_wedge(rng, reg, m + 1)
        if all(decomp_certificate(w, decompose(w, reg), reg)):
            good += 1
    return good == n, f"{good}/{n} cases"


def _run_c8(rng: random.Random, scale: int) -> tuple[bool, str]:
    n = _scaled(10, scale)
    good = 0
    x = BiFrac.make(BiPoly.var_x())
    y = BiFrac.make(BiPoly.var_y())
    for i in range(n):
        reg = AtomRegistry()
        c1 = _rand_rational(rng, avoid=())
        c2 = _rand_rational(rng, avoid=())
        consts = [_rand_constant(rng) for _ in range(i % 3)]
        slots = [mult_vec(x - BiFrac.const(c1), reg),
                 mult_vec(y - BiFrac.const(c2), reg)]
        slots += [mult_vec(c, reg, "Qxy") for c in consts]
        w = wedge_of(slots)
        res = tame_symbol(w, ExceptionalCurve(c1, c2), reg)
        vslots = [mult_vec(RatFunc.var(), reg, "Qv")]
        vslots += [mult_vec(c, reg, "Qv") for c in consts]
        want = wedge_of(vslots)
        e = LambdaElem.make(len(consts), curve=retag(res, "Qt"))
        if res == want and differential(e, reg).is_zero:
            good += 1
    return good == n, f"{good}/{n} cases"


def _run_c9(rng: random.Random, scale: int) -> tuple[bool, str]:
    n = _scaled(100, scale)
    good = 0
    for i in range(n):
        reg = AtomRegistry()
        f = _split_ratfunc(rng)
        g = _split_ratfunc(rng)
        cbar = _const_wedge(rng, reg, i % 3)
        if bs_vanishing_check(f, g, cbar, reg):
            good += 1
    return good == n, f"{good}/{n} cases"


_CRITERIA = (
    ("C1", "totaro-differential", _run_c1),
    ("C2", "weil-reciprocity", _run_c2),
    ("C3", "parshin-d-squared", _run_c3),
    ("C4", "five-term-kernel", _run_c4),
    ("C5", "chow-comparison-morphism", _run_c5),
    ("C6", "homotopy-triangles", _run_c6),
    ("C7", "decomposition-certificate", _run_c7),
    ("C8", "blowup-residue", _run_c8),
    ("C9", "two-slot-vanishing", _run_c9),
)


def run_criterion(ident: str, seed: int = 7, scale: int = 100) -> CriterionResult:
    """One criterion on a fresh seeded corpus; C10 is the determinism row
    and reruns all the others."""
    if ident == "C10":
        return run_suite(seed, scale)[0][-1]
    for cid, title, runner in _CRITERIA:
        if cid == ident:
            rng = random.Random(f"{seed}:{cid}")
            ok, detail = runner(rng, scale)
            return CriterionResult(cid, title, ok, detail)
    raise ValueError(f"unknown criterion {ident!r}")


def run_suite(seed: int = 7, scale: int = 100) -> tuple[list[CriterionResult], bool]:
    """All criteria in order, then a full second pass to attest that the
    report is reproducible for this seed."""
    results, again = [[run_criterion(cid, seed, scale) for cid, _, _ in _CRITERIA]
                      for _ in range(2)]
    stable = results == again
    results.append(CriterionResult("C10", "suite-determinism", stable,
                                   "two passes identical" if stable
                                   else "passes differ"))
    return results, all(r.ok for r in results)


def suite_report(results: list[CriterionResult], seed: int, scale: int) -> str:
    lines = [f"acceptance suite: seed={seed} scale={scale}"]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{r.ident:<4} {r.title:<26} {status:<4} {r.detail}")
    overall = "PASS" if all(r.ok for r in results) else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines)
