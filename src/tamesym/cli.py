"""Command-line front end.

Parses DSL inputs, dispatches to the engine, and emits text or JSON.
Exit codes: 0 all asserted properties hold, 1 a property is violated,
2 usage or parse error, 3 engine error (an internal failure also exits 3,
its message prefixed "bug:"). JSON output always carries the
fields {verb, input, result, certificates, status} with sorted keys, so
output for a fixed input and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction

from .atoms import AtomRegistry
from .chow import (PointCycle, admissible_check, cube_boundary,
                   w_commutes_check, w_map_curve)
from .dsl import (parse_cycle, parse_divisor, parse_element, parse_gamma,
                  parse_place, parse_wedge)
from .errors import ParseError, TameSymError
from .expressions import INF
from .gamma import delta, five_term, gamma_str, ts_gamma
from .homotopy import decompose, h_map, homotopy_check_sub, homotopy_check_top
from .lambda_complex import d_squared_check, differential, lambda_str
from .places import ExceptionalCurve, tame_symbol, weil_sum
from .polynomials import num_str, sum_str
from .snc import snc_check
from .suite import run_suite, suite_report
from .wedges import wedge_add, wedge_equal, wedge_str, nonconstant_count

Q = Fraction


@dataclass
class Outcome:
    input: dict
    result: object
    certificates: list
    ok: bool
    lines: list


def _cert(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": ok, "detail": detail}


def _require_field(w, wanted: str, what: str) -> None:
    if w.field != wanted:
        raise ParseError(f"{what} must live over {wanted}, got {w.field}")


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------


def _h_ts(args, reg) -> Outcome:
    w = parse_wedge(args.wedge, reg)
    if (args.place is None) == (args.divisor is None):
        raise ParseError("exactly one of --place or --divisor is required")
    if args.place is not None:
        _require_field(w, "Qt", "a wedge evaluated at a place")
        at = parse_place(args.place)
        where = {"place": args.place}
    else:
        _require_field(w, "Qxy", "a wedge evaluated at a divisor")
        at = parse_divisor(args.divisor)
        where = {"divisor": args.divisor}
    render = wedge_str(tame_symbol(w, at, reg))
    return Outcome({"wedge": args.wedge, **where}, render, [], True, [render])


def _h_weil(args, reg) -> Outcome:
    w = parse_wedge(args.wedge, reg)
    _require_field(w, "Qt", "the reciprocity sum input")
    render = wedge_str(weil_sum(w, reg))
    return Outcome({"wedge": args.wedge}, render, [], True, [render])


def _h_delta(args, reg) -> Outcome:
    g = parse_gamma(args.gamma, reg)
    render = wedge_str(delta(g, reg))
    return Outcome({"gamma": args.gamma}, render, [], True, [render])


def _point_value(text: str) -> object:
    if text.strip() == "inf":
        return INF
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational number or inf, got {text!r}") \
            from None


def _h_five_term(args, reg) -> Outcome:
    pts = [_point_value(p) for p in args.points]
    ft = five_term(*pts)
    in_kernel = delta(ft, reg).is_zero
    render = gamma_str(ft)
    lines = [render, f"in-delta-kernel: {'yes' if in_kernel else 'no'}"]
    return Outcome({"points": " ".join(args.points)}, render,
                   [_cert("in-delta-kernel", in_kernel)], in_kernel, lines)


def _h_ts_gamma(args, reg) -> Outcome:
    g = parse_gamma(args.gamma, reg)
    _require_field(g, "Qt", "a symbol evaluated at a place")
    v = parse_place(args.place)
    render = gamma_str(ts_gamma(g, v, reg))
    return Outcome({"gamma": args.gamma, "place": args.place},
                   render, [], True, [render])


def _h_dd(args, reg) -> Outcome:
    e = parse_element(args.element, reg)
    render = lambda_str(differential(e, reg))
    return Outcome({"element": args.element}, render, [], True, [render])


def _h_dd2(args, reg) -> Outcome:
    e = parse_element(args.element, reg)
    d2 = d_squared_check(e, reg)
    render = lambda_str(d2)
    ok = d2.is_zero
    lines = [render, f"d-squared-zero: {'yes' if ok else 'no'}"]
    return Outcome({"element": args.element}, render,
                   [_cert("d-squared-zero", ok)], ok, lines)


def _h_snc(args, reg) -> Outcome:
    w = parse_wedge(args.wedge, reg, field="Qxy")
    rep = snc_check(w)
    lines = [f"strictly-regular: {'yes' if rep.ok else 'no'}"]
    certs = [_cert("strictly-regular", rep.ok,
                   f"{rep.candidates_checked} candidate points")]
    for p in rep.problems:
        lines.append(f"{p.kind} at {p.where}: {', '.join(p.divisors)}")
        certs.append(_cert(p.kind, False,
                           f"at {p.where}: {', '.join(p.divisors)}"))
    return Outcome({"wedge": args.wedge}, lines[0], certs, rep.ok, lines)


def _h_blowup(args, reg) -> Outcome:
    try:
        c1, c2 = (Q(p) for p in args.center.split(","))
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"--center expects two rationals like 1,-2/3, got {args.center!r}"
        ) from None
    w = parse_wedge(args.wedge, reg, field="Qxy")
    render = wedge_str(tame_symbol(w, ExceptionalCurve(c1, c2), reg))
    return Outcome({"wedge": args.wedge, "center": args.center},
                   render, [], True, [render])


def _h_adm(args, reg) -> Outcome:
    z = parse_cycle(args.cycle)
    ok, problems = admissible_check(z)
    lines = [f"admissible: {'yes' if ok else 'no'}"] + problems
    certs = [_cert("admissible", ok)]
    certs += [_cert("face-violation", False, p) for p in problems]
    return Outcome({"cycle": args.cycle}, lines[0], certs, ok, lines)


def _point_str(p: PointCycle) -> str:
    inner = ", ".join(num_str(v) for v in p.values)
    flag = " [touches 1]" if p.touches_one else ""
    return sum_str([(p.coeff, f"pt[{inner}]")]) + flag


def _h_bdry(args, reg) -> Outcome:
    z = parse_cycle(args.cycle)
    pts = cube_boundary(z, reg)
    renders = [_point_str(p) for p in pts]
    lines = renders if renders else ["0"]
    return Outcome({"cycle": args.cycle}, lines if renders else "0",
                   [], True, lines)


def _h_wmap(args, reg) -> Outcome:
    z = parse_cycle(args.cycle)
    render = lambda_str(w_map_curve(z, reg))
    return Outcome({"cycle": args.cycle}, render, [], True, [render])


def _h_wcheck(args, reg) -> Outcome:
    z = parse_cycle(args.cycle)
    rep = w_commutes_check(z, reg)
    lines = [f"commutes: {'yes' if rep.ok else 'no'}",
             f"d(W(Z)) = {lambda_str(rep.lhs)}",
             f"W(dZ)   = {lambda_str(rep.rhs)}"]
    return Outcome({"cycle": args.cycle}, lines[0],
                   [_cert("square-commutes", rep.ok)], rep.ok, lines)


def _h_h(args, reg) -> Outcome:
    w = parse_wedge(args.wedge, reg)
    _require_field(w, "Qt", "the homotopy input")
    render = gamma_str(h_map(w, reg))
    return Outcome({"wedge": args.wedge}, render, [], True, [render])


def _h_decomp(args, reg) -> Outcome:
    w = parse_wedge(args.wedge, reg)
    _require_field(w, "Qt", "the decomposition input")
    dec = decompose(w, reg)
    exact = wedge_equal(wedge_add(delta(dec.preimage, reg), dec.remainder), w)
    small = all(nonconstant_count(key) <= 2 for key, _ in dec.remainder.terms)
    lines = [f"preimage: {gamma_str(dec.preimage)}",
             f"remainder: {wedge_str(dec.remainder)}",
             f"certificate: {'yes' if exact and small else 'no'}"]
    certs = [_cert("delta-preimage-plus-remainder", exact),
             _cert("remainder-at-most-two-nonconstant", small)]
    result = {"preimage": gamma_str(dec.preimage),
              "remainder": wedge_str(dec.remainder)}
    return Outcome({"wedge": args.wedge}, result, certs,
                   exact and small, lines)


def _h_homotopy_check(args, reg) -> Outcome:
    if args.sub:
        g = parse_gamma(args.input, reg)
        _require_field(g, "Qt", "the homotopy input")
        rep = homotopy_check_sub(g, reg)
        lines = [f"upper-triangle: {'yes' if rep.ok else 'no'}",
                 f"syntactic: {'yes' if rep.syntactic else 'no'}"]
        certs = [_cert("upper-triangle", rep.ok,
                       "syntactic" if rep.syntactic else "by delta-image")]
        return Outcome({"gamma": args.input}, lines[0], certs, rep.ok, lines)
    w = parse_wedge(args.input, reg)
    _require_field(w, "Qt", "the homotopy input")
    rep = homotopy_check_top(w, reg)
    lines = [f"lower-triangle: {'yes' if rep.ok else 'no'}",
             f"delta(h) = {wedge_str(rep.delta_h)}",
             f"residues = {wedge_str(rep.weil)}"]
    return Outcome({"wedge": args.input}, lines[0],
                   [_cert("lower-triangle", rep.ok)], rep.ok, lines)


def _h_suite(args, reg) -> Outcome:
    results, ok = run_suite(args.seed, args.scale)
    report = suite_report(results, args.seed, args.scale)
    certs = [{"ident": r.ident, "title": r.title, "ok": r.ok,
              "detail": r.detail} for r in results]
    return Outcome({"seed": str(args.seed), "scale": str(args.scale)},
                   "PASS" if ok else "FAIL", certs, ok, report.splitlines())


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a word that begins with a single '-' (any but -h) as text, not
    as an option: every option but -h is long, and argparse would take
    '-1/3' or '-2*{2*t}_2' for an option, since they miss its
    negative-number pattern."""

    def _parse_optional(self, arg_string):
        single_dash = arg_string[:1] == "-" and arg_string[1:2] != "-"
        if single_dash and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")

    parser = _Parser(
        prog="tamesym",
        description="Exact tame-symbol calculus over Q.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("ts", parents=[common],
                       help="tame symbol of a wedge at a place or divisor")
    p.add_argument("--place", help="place like t=3, t=inf, or t^2+1=0")
    p.add_argument("--divisor", help="divisor like x=0, y=inf, or y=x")
    p.add_argument("wedge")
    p.set_defaults(handler=_h_ts)

    p = sub.add_parser("weil", parents=[common],
                       help="sum of tame symbols over all places")
    p.add_argument("wedge")
    p.set_defaults(handler=_h_weil)

    p = sub.add_parser("delta", parents=[common],
                       help="differential of a weight-two element")
    p.add_argument("gamma")
    p.set_defaults(handler=_h_delta)

    p = sub.add_parser("five-term", parents=[common],
                       help="five-term element of five distinct points")
    p.add_argument("points", nargs=5, metavar="POINT",
                   help="rational number or inf")
    p.set_defaults(handler=_h_five_term)

    p = sub.add_parser("ts-gamma", parents=[common],
                       help="residue of a weight-two element at a place")
    p.add_argument("--place", required=True)
    p.add_argument("gamma")
    p.set_defaults(handler=_h_ts_gamma)

    p = sub.add_parser("dd", parents=[common],
                       help="differential of a graded element")
    p.add_argument("element")
    p.set_defaults(handler=_h_dd)

    p = sub.add_parser("dd2", parents=[common],
                       help="differential applied twice (should be zero)")
    p.add_argument("element")
    p.set_defaults(handler=_h_dd2)

    p = sub.add_parser("snc", parents=[common],
                       help="strict normal crossing check of surface support")
    p.add_argument("wedge")
    p.set_defaults(handler=_h_snc)

    p = sub.add_parser("blowup", parents=[common],
                       help="exceptional-curve residue at a blown-up point")
    p.add_argument("--center", required=True, metavar="C1,C2")
    p.add_argument("wedge")
    p.set_defaults(handler=_h_blowup)

    p = sub.add_parser("adm", parents=[common],
                       help="admissibility of a cube curve")
    p.add_argument("cycle")
    p.set_defaults(handler=_h_adm)

    p = sub.add_parser("bdry", parents=[common],
                       help="cubical boundary of an admissible curve")
    p.add_argument("cycle")
    p.set_defaults(handler=_h_bdry)

    p = sub.add_parser("wmap", parents=[common],
                       help="comparison map of a cube curve")
    p.add_argument("cycle")
    p.set_defaults(handler=_h_wmap)

    p = sub.add_parser("wcheck", parents=[common],
                       help="d(W(Z)) = W(dZ) on an admissible curve")
    p.add_argument("cycle")
    p.set_defaults(handler=_h_wcheck)

    p = sub.add_parser("h", parents=[common],
                       help="lifted reciprocity value of a split wedge")
    p.add_argument("wedge")
    p.set_defaults(handler=_h_h)

    p = sub.add_parser("decomp", parents=[common],
                       help="split-cone decomposition with certificate")
    p.add_argument("wedge")
    p.set_defaults(handler=_h_decomp)

    p = sub.add_parser("homotopy-check", parents=[common],
                       help="homotopy triangle identities")
    p.add_argument("--sub", action="store_true",
                   help="treat the input as a weight-two element "
                        "(upper triangle)")
    p.add_argument("input")
    p.set_defaults(handler=_h_homotopy_check)

    p = sub.add_parser("suite", parents=[common],
                       help="full acceptance corpus with pass/fail table")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale", type=int, default=100,
                   help="corpus size as a percentage (default: 100)")
    p.set_defaults(handler=_h_suite)

    return parser


def _emit_json(verb: str, input_obj: dict, result, certificates: list,
               status: str) -> None:
    payload = {"verb": verb, "input": input_obj, "result": result,
               "certificates": certificates, "status": status}
    print(json.dumps(payload, sort_keys=True))


def _report_error(args, message: str, status: str) -> None:
    if args.format == "json":
        _emit_json(args.verb, {}, message, [], status)
    else:
        print(f"{args.verb}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    reg = AtomRegistry()
    try:
        out = args.handler(args, reg)
    except ParseError as e:
        _report_error(args, str(e), "parse-error")
        return 2
    except (TameSymError, ZeroDivisionError, ValueError) as e:
        _report_error(args, f"{type(e).__name__}: {e}", "engine-error")
        return 3
    except Exception as e:
        # an internal guard or an unforeseen failure: still exit 3, never the
        # traceback exit 1 that would read as "property violated"
        _report_error(args, f"bug: {type(e).__name__}: {e}", "engine-error")
        traceback.print_exc(file=sys.stderr)
        return 3
    if args.format == "json":
        _emit_json(args.verb, out.input, out.result, out.certificates,
                   "ok" if out.ok else "violation")
    else:
        print("\n".join(out.lines))
    return 0 if out.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
