"""Output checks, run outside the timed region.

Each check returns None when the program's output is right and a short
message when it is not. None of them calls the checker under test: the
answers come from refmath (built from the known factorisations), from
method properties (a sum that must vanish, an identity that must hold),
or from parsing the rendered text back. Every check has a self-test that
feeds it one deliberately wrong answer and expects a rejection.
"""

from __future__ import annotations

from fractions import Fraction

import gen
import refmath as rm

Q = Fraction


def class_dict(T, mv) -> dict:
    """A MultVec as {atom key: exponent}, keyed like the spec classes."""
    out = {}
    for atom, c in mv.coeffs:
        if isinstance(atom, T.PrimeAtom):
            out[("p", atom.p)] = c
        elif isinstance(atom, T.UniAtom):
            out[("u", atom.poly.coeffs)] = c
        else:
            out[("b", atom.poly.terms)] = c
    return out


def _round_trip(value, text: str, parse) -> str | None:
    """render -> parse must give the value back."""
    if value.is_zero:
        return None if text == "0" else f"zero value rendered as {text!r}"
    back = parse(text)
    return None if back == value else f"{text!r} parses to a different value"


# ---------------------------------------------------------------------------
# program inputs built from specs
# ---------------------------------------------------------------------------


def build(T, spec):
    """The RatFunc or BiFrac a spec describes, built with tamesym's own
    arithmetic outside the timed region."""
    if isinstance(spec, gen.UniSpec):
        num, den = T.UniPoly.const(spec.const), T.UniPoly.const(1)
        for cs, e in spec.factors:
            p = T.UniPoly.make(cs) ** abs(e)
            if e > 0:
                num = num * p
            else:
                den = den * p
        return T.RatFunc.make(num, den)
    num, den = T.BiPoly.const(spec.const), T.BiPoly.const(1)
    for poly, e in spec.factors:
        p = T.BiPoly.make(poly) ** abs(e)
        if e > 0:
            num = num * p
        else:
            den = den * p
    return T.BiFrac.make(num, den)


# ---------------------------------------------------------------------------
# suite and factor
# ---------------------------------------------------------------------------


def check_suite(T, op, result) -> str | None:
    cid = op[0]
    if result.ident != cid or not result.ok:
        return f"{cid} seed {op[1]}: {result.detail}"
    return None


def check_factor(T, op: gen.FactorOp, classes) -> str | None:
    for spec, mv in zip(op.specs, classes):
        want = spec.expected_class()
        got = class_dict(T, mv)
        if got != want:
            return f"{op.name}: class {got} differs from the constructed {want}"
    return None


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------


def _prime_dict(T, w) -> dict | None:
    out = {}
    for key, c in w.terms:
        if len(key) != 1 or not isinstance(key[0], T.PrimeAtom):
            return None
        out[key[0].p] = c
    return out


def check_session(T, op: gen.SessionOp, out) -> str | None:
    chk = T.AtomRegistry()

    def wedge_back(field):
        return lambda text: T.parse_wedge(text, chk, field=field)

    def gamma_back(field):
        return lambda text: T.parse_gamma(text, chk, field=field)

    verb = op.verb
    if verb == "ts":
        w, r, text = out
        f, g, place = op.facts["f"], op.facts["g"], op.facts["place"]
        # the program's residue convention sends pi ^ u to u, the inverse
        # of the classical symbol (-1)^(v(f)v(g)) f^v(g) / g^v(f)
        want = {p: -e for p, e in rm.tame_symbol_class(
            (f.const, f.factors), (g.const, g.factors), place).items()}
        got = _prime_dict(T, r)
        if got != want:
            return f"ts {op.text} at {op.place}: {got} != formula {want}"
        swapped = T.tame_symbol(T.parse_wedge(op.facts["swapped"], chk),
                                T.parse_place(op.place), chk)
        if _prime_dict(T, swapped) != {p: -e for p, e in want.items()}:
            return f"ts {op.text}: swapping the slots does not flip the sign"
        return _round_trip(r, text, wedge_back(r.field))
    if verb == "weil":
        r, text = out
        if not r.is_zero:
            return f"weil {op.text}: reciprocity sum {text} is not zero"
        return _round_trip(r, text, wedge_back(r.field))
    if verb == "delta":
        r, text = out
        want = T.parse_wedge(op.facts["formula"], chk, field="Qt")
        if r != want:
            return f"delta {op.text}: {text} != {T.wedge_str(want)}"
        return _round_trip(r, text, wedge_back(r.field))
    if verb == "five_term":
        r, text = out
        if not T.delta(r, chk).is_zero:
            return f"five_term {op.text}: {text} is not in the kernel of delta"
        return _round_trip(r, text, gamma_back(r.field))
    if verb == "decompose":
        w, dec, pre_text, rem_text = out
        lhs = T.wedge_add(T.delta(dec.preimage, chk), dec.remainder)
        if lhs != w:
            return f"decompose {op.text}: delta(preimage) + remainder != input"
        if any(T.nonconstant_count(key) > 2 for key, _ in dec.remainder.terms):
            return f"decompose {op.text}: remainder has 3 nonconstant slots"
        return (_round_trip(dec.preimage, pre_text, gamma_back("Qt"))
                or _round_trip(dec.remainder, rem_text, wedge_back("Qt")))
    if verb == "h":
        w, r, text = out
        # lower triangle, from delta and the reciprocity sum alone
        if not T.wedge_add(T.delta(r, chk), T.weil_sum(w, chk)).is_zero:
            return f"h {op.text}: delta(h(w)) + weil(w) != 0"
        return _round_trip(r, text, gamma_back(r.field))
    if verb == "dd2":
        r, text = out
        if not r.is_zero or text != f"m={op.facts['m']}; 0":
            return f"dd2 {op.text}: d^2 = {text}"
        back = T.parse_element(text, chk)
        return None if back == r else f"dd2 {op.text}: {text!r} does not parse back"
    if verb == "snc":
        rep, lines = out
        got = {(p.kind, p.where, frozenset(p.divisors)) for p in rep.problems}
        want = op.facts["problems"]
        if got != want or rep.ok != (not want):
            return f"snc {op.text}: reported {sorted(got)} != constructed {sorted(want)}"
        return None
    return f"unknown verb {verb}"


def run_session_op(T, op: gen.SessionOp, reg):
    """One text through a parser, a verb function and canonical rendering."""
    verb = op.verb
    if verb == "ts":
        w = T.parse_wedge(op.text, reg)
        r = T.tame_symbol(w, T.parse_place(op.place), reg)
        return w, r, T.wedge_str(r)
    if verb == "weil":
        r = T.weil_sum(T.parse_wedge(op.text, reg), reg)
        return r, T.wedge_str(r)
    if verb == "delta":
        r = T.delta(T.parse_gamma(op.text, reg), reg)
        return r, T.wedge_str(r)
    if verb == "five_term":
        pts = []
        for piece in op.text.split():
            v = T.parse_place(piece)
            pts.append(T.INF if v == T.INFINITY else v.c)
        r = T.five_term(*pts)
        return r, T.gamma_str(r)
    if verb == "decompose":
        w = T.parse_wedge(op.text, reg)
        dec = T.decompose(w, reg)
        return w, dec, T.gamma_str(dec.preimage), T.wedge_str(dec.remainder)
    if verb == "h":
        w = T.parse_wedge(op.text, reg)
        r = T.h_map(w, reg)
        return w, r, T.gamma_str(r)
    if verb == "dd2":
        r = T.d_squared_check(T.parse_element(op.text, reg), reg)
        return r, T.lambda_str(r)
    if verb == "snc":
        rep = T.snc_check(T.parse_wedge(op.text, reg, field="Qxy"))
        lines = [f"strictly-regular: {'yes' if rep.ok else 'no'}"]
        lines += [f"{p.kind} at {p.where}: {', '.join(p.divisors)}"
                  for p in rep.problems]
        return rep, lines
    raise ValueError(f"unknown verb {verb}")


# ---------------------------------------------------------------------------
# self-tests
# ---------------------------------------------------------------------------


def _expect(ok_msg, bad_msg, what: str) -> None:
    if ok_msg is not None:
        raise AssertionError(f"{what}: right answer rejected: {ok_msg}")
    if bad_msg is None:
        raise AssertionError(f"{what}: wrong answer accepted")


def self_test(T, workload: str) -> None:
    """Every check of the workload accepts the program's answer on a fixed
    input and rejects a deliberately wrong one."""
    rm.self_test()
    if workload == "suite":
        op = ("C4", 1, 1)
        good = T.run_criterion(*op)
        bad = type(good)(good.ident, good.title, False, "0/1 cases")
        _expect(check_suite(T, op, good), check_suite(T, op, bad), "suite")
        return
    if workload == "factor":
        spec = gen.UniSpec(Q(3, 2), [([-1, 1], 2), ([2, 0, 1], -1)])
        op = gen.FactorOp("self-test", "uni", [spec])
        good = T.mult_vec(build(T, spec), T.AtomRegistry())
        bad = T.mult_vec(build(T, gen.UniSpec(Q(3, 2), [([-1, 1], 2)])),
                         T.AtomRegistry())
        _expect(check_factor(T, op, [good]), check_factor(T, op, [bad]), "factor")
        bspec = gen.BiSpec(Q(2), [({(0, 1): 1, (2, 0): -1}, 1), ({(1, 0): 1}, -2)])
        bop = gen.FactorOp("self-test-bi", "bi", [bspec])
        good = T.mult_vec(build(T, bspec), T.AtomRegistry())
        bad = T.mult_vec(build(T, gen.BiSpec(Q(2), [({(1, 0): 1}, -2)])),
                         T.AtomRegistry())
        _expect(check_factor(T, bop, [good]), check_factor(T, bop, [bad]),
                "factor bivariate")
        return
    reg = T.AtomRegistry()
    for op, spoil in _session_self_cases(T):
        out = run_session_op(T, op, reg)
        _expect(check_session(T, op, out), check_session(T, op, spoil(out)),
                op.verb)


def _session_self_cases(T):
    f = gen.UniSpec(Q(1), [([-3, 1], 2), ([2, 0, 1], 1)])
    g = gen.UniSpec(Q(1), [([-3, 1], 1), ([3, 3, 0, 1], 1)])
    ts = gen.SessionOp("ts", f"w[{f.text()}, {g.text()}]", "t=3",
                       {"f": f, "g": g, "place": Q(3),
                        "swapped": f"w[{g.text()}, {f.text()}]"})

    def double_ts(out):
        w, r, _ = out
        bad = T.wedge_scale(r, 2)
        return w, bad, T.wedge_str(bad)

    def wrong_text(out):
        return out[:-1] + (out[-1] + " + w[2]",)

    cases = [
        (ts, double_ts),
        (ts, wrong_text),
        (gen.SessionOp("weil", "w[t-1, 2*(t+3)/(t-5)]"),
         lambda out: (T.parse_wedge("w[2]", T.AtomRegistry(), field="Q"), "w[2]")),
        (gen.SessionOp("delta", "2*{3/2*(t-1)/(t+2)}_2 ⊗ w[t-4]",
                       facts={"formula": "2*w[3/2*(t-1)/(t+2), 1-(3/2*(t-1)/(t+2)), t-4]"}),
         lambda out: (T.wedge_scale(out[0], -1), out[1])),
        (gen.SessionOp("five_term", "t=0 t=1 t=3 t=7 t=inf"),
         lambda out: (T.GammaSub.make(out[0].field, 0, dict(out[0].terms[1:])),
                      out[1])),
        (gen.SessionOp("decompose", "w[t, 1-t, 1-3/t]"),
         lambda out: (out[0], T.DecompResult(
             out[1].preimage, T.wedge_scale(out[1].remainder, 2)),
             out[2], out[3])),
        (gen.SessionOp("h", "w[t, 1-t, 1-3/t]"),
         lambda out: (out[0], T.gamma_scale(out[1], 2), out[2])),
        (gen.SessionOp("dd2", "m=1; [S: w[x-1, y-2, y-2*x-3]]", facts={"m": 1}),
         lambda out: (T.parse_element("m=1; [pt: w[2]]", T.AtomRegistry()),
                      "m=1; [pt: w[2]]")),
    ]
    curves = [("S", Q(1), Q(0)), ("S", Q(1), Q(1)), ("P", Q(1)), ("H", Q(1))]
    snc = gen.SessionOp("snc", "w[" + ", ".join(gen.curve_slot(c) for c in curves) + "]",
                        facts={"problems": rm.snc_problems(curves)})

    def drop_problem(out):
        rep, lines = out
        return T.SncReport(rep.ok, rep.divisors, rep.problems[1:],
                           rep.candidates_checked), lines

    cases.append((snc, drop_problem))
    return cases
