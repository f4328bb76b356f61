"""Command-line front end.

Parses DSL inputs, dispatches to the engine, and emits text or JSON. Each
verb is declared once, in the `_verbs` table: handler, help, and arguments
as (name, add_argument options). The table builds the parser and the JSON
`input` record, which holds each declared argument that has a value, as
text: a list joined by one space, any other value by str(); homotopy-check
records its input as `gamma` with --sub and `wedge` without. A handler
returns an Outcome, or just the rendered line for a one-line answer that
asserts nothing.

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

from .atoms import AtomRegistry
from .chow import (PointCycle, admissible_check, cube_boundary,
                   w_commutes_check, w_map_curve)
from .dsl import (parse_cycle, parse_divisor, parse_element, parse_gamma,
                  parse_place, parse_wedge)
from .errors import ParseError, TameSymError
from .expressions import INF
from .gamma import delta, five_term, gamma_str, ts_gamma
from .homotopy import (decomp_certificate, decompose, h_map,
                       homotopy_check_sub, homotopy_check_top)
from .lambda_complex import d_squared_check, differential, lambda_str
from .places import INFINITY, ExceptionalCurve, tame_symbol, weil_sum
from .polynomials import num_str, sum_str
from .snc import snc_check
from .suite import run_suite, suite_report
from .wedges import wedge_str


@dataclass
class Outcome:
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


def _h_ts(args, reg) -> str:
    w = parse_wedge(args.wedge, reg)
    if (args.place is None) == (args.divisor is None):
        raise ParseError("exactly one of --place or --divisor is required")
    if args.place is not None:
        _require_field(w, "Qt", "a wedge evaluated at a place")
        at = parse_place(args.place)
    else:
        _require_field(w, "Qxy", "a wedge evaluated at a divisor")
        at = parse_divisor(args.divisor)
    return wedge_str(tame_symbol(w, at, reg))


def _h_weil(args, reg) -> str:
    w = parse_wedge(args.wedge, reg)
    _require_field(w, "Qt", "the reciprocity sum input")
    return wedge_str(weil_sum(w, reg))


def _h_delta(args, reg) -> str:
    return wedge_str(delta(parse_gamma(args.gamma, reg), reg))


def _number(text: str, message: str, inf: bool = False):
    """text as a `rational` of docs/grammar.ebnf, or as "inf" where inf
    is allowed, read by the DSL's rule for the place t = c; anything else
    raises ParseError(message)."""
    try:
        place = parse_place(f"t={text}")
    except ParseError:
        place = None
    if place is None or (place is INFINITY and not inf):
        raise ParseError(message)
    return INF if place is INFINITY else place.c


def _h_five_term(args, reg) -> Outcome:
    ft = five_term(*(_number(p, f"expected a rational number or inf, got {p!r}", True)
                     for p in args.points))
    in_kernel = delta(ft, reg).is_zero
    render = gamma_str(ft)
    lines = [render, f"in-delta-kernel: {'yes' if in_kernel else 'no'}"]
    return Outcome(render, [_cert("in-delta-kernel", in_kernel)], in_kernel,
                   lines)


def _h_ts_gamma(args, reg) -> str:
    g = parse_gamma(args.gamma, reg)
    _require_field(g, "Qt", "a symbol evaluated at a place")
    return gamma_str(ts_gamma(g, parse_place(args.place), reg))


def _h_dd(args, reg) -> str:
    return lambda_str(differential(parse_element(args.element, reg), reg))


def _h_dd2(args, reg) -> Outcome:
    d2 = d_squared_check(parse_element(args.element, reg), reg)
    render = lambda_str(d2)
    ok = d2.is_zero
    lines = [render, f"d-squared-zero: {'yes' if ok else 'no'}"]
    return Outcome(render, [_cert("d-squared-zero", ok)], ok, lines)


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
    return Outcome(lines[0], certs, rep.ok, lines)


def _h_blowup(args, reg) -> str:
    message = f"--center expects two rationals like 1,-2/3, got {args.center!r}"
    center = [_number(p, message) for p in args.center.split(",")]
    if len(center) != 2:
        raise ParseError(message)
    c1, c2 = center
    w = parse_wedge(args.wedge, reg, field="Qxy")
    return wedge_str(tame_symbol(w, ExceptionalCurve(c1, c2), reg))


def _h_adm(args, reg) -> Outcome:
    ok, problems = admissible_check(parse_cycle(args.cycle))
    lines = [f"admissible: {'yes' if ok else 'no'}"] + problems
    certs = [_cert("admissible", ok)]
    certs += [_cert("face-violation", False, p) for p in problems]
    return Outcome(lines[0], certs, ok, lines)


def _point_str(p: PointCycle) -> str:
    inner = ", ".join(num_str(v) for v in p.values)
    flag = " [touches 1]" if p.touches_one else ""
    return sum_str([(p.coeff, f"pt[{inner}]")]) + flag


def _h_bdry(args, reg) -> Outcome:
    renders = [_point_str(p)
               for p in cube_boundary(parse_cycle(args.cycle), reg)]
    return Outcome(renders or "0", [], True, renders or ["0"])


def _h_wmap(args, reg) -> str:
    return lambda_str(w_map_curve(parse_cycle(args.cycle), reg))


def _h_wcheck(args, reg) -> Outcome:
    rep = w_commutes_check(parse_cycle(args.cycle), reg)
    lines = [f"commutes: {'yes' if rep.ok else 'no'}",
             f"d(W(Z)) = {lambda_str(rep.lhs)}",
             f"W(dZ)   = {lambda_str(rep.rhs)}"]
    return Outcome(lines[0], [_cert("square-commutes", rep.ok)], rep.ok, lines)


def _h_h(args, reg) -> str:
    w = parse_wedge(args.wedge, reg)
    _require_field(w, "Qt", "the homotopy input")
    return gamma_str(h_map(w, reg))


def _h_decomp(args, reg) -> Outcome:
    w = parse_wedge(args.wedge, reg)
    _require_field(w, "Qt", "the decomposition input")
    dec = decompose(w, reg)
    exact, small = decomp_certificate(w, dec, reg)
    result = {"preimage": gamma_str(dec.preimage),
              "remainder": wedge_str(dec.remainder)}
    lines = [f"preimage: {result['preimage']}",
             f"remainder: {result['remainder']}",
             f"certificate: {'yes' if exact and small else 'no'}"]
    certs = [_cert("delta-preimage-plus-remainder", exact),
             _cert("remainder-at-most-two-nonconstant", small)]
    return Outcome(result, certs, exact and small, lines)


def _h_homotopy_check(args, reg) -> Outcome:
    x = (parse_gamma if args.sub else parse_wedge)(args.input, reg)
    _require_field(x, "Qt", "the homotopy input")
    if args.sub:
        rep = homotopy_check_sub(x, reg)
        lines = [f"upper-triangle: {'yes' if rep.ok else 'no'}",
                 f"syntactic: {'yes' if rep.syntactic else 'no'}"]
        certs = [_cert("upper-triangle", rep.ok,
                       "syntactic" if rep.syntactic else "by delta-image")]
        return Outcome(lines[0], certs, rep.ok, lines)
    rep = homotopy_check_top(x, reg)
    lines = [f"lower-triangle: {'yes' if rep.ok else 'no'}",
             f"delta(h) = {wedge_str(rep.delta_h)}",
             f"residues = {wedge_str(rep.weil)}"]
    return Outcome(lines[0], [_cert("lower-triangle", rep.ok)], rep.ok, lines)


def _h_suite(args, reg) -> Outcome:
    results, ok = run_suite(args.seed, args.scale)
    report = suite_report(results, args.seed, args.scale)
    certs = [{"ident": r.ident, "title": r.title, "ok": r.ok,
              "detail": r.detail} for r in results]
    return Outcome("PASS" if ok else "FAIL", certs, ok, report.splitlines())


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


def _verbs() -> list:
    """(verb, handler, help, arguments) of every verb, in help order; each
    argument is (name, add_argument options)."""
    return [
        ("ts", _h_ts, "tame symbol of a wedge at a place or divisor",
         [("--place", {"help": "place like t=3, t=inf, or t^2+1=0"}),
          ("--divisor", {"help": "divisor like x=0, y=inf, or y=x"}),
          ("wedge", {})]),
        ("weil", _h_weil, "sum of tame symbols over all places",
         [("wedge", {})]),
        ("delta", _h_delta, "differential of a weight-two element",
         [("gamma", {})]),
        ("five-term", _h_five_term,
         "five-term element of five distinct points",
         [("points", {"nargs": 5, "metavar": "POINT",
                      "help": "rational number or inf"})]),
        ("ts-gamma", _h_ts_gamma,
         "residue of a weight-two element at a place",
         [("--place", {"required": True}), ("gamma", {})]),
        ("dd", _h_dd, "differential of a graded element", [("element", {})]),
        ("dd2", _h_dd2, "differential applied twice (should be zero)",
         [("element", {})]),
        ("snc", _h_snc, "strict normal crossing check of surface support",
         [("wedge", {})]),
        ("blowup", _h_blowup, "exceptional-curve residue at a blown-up point",
         [("--center", {"required": True, "metavar": "C1,C2"}),
          ("wedge", {})]),
        ("adm", _h_adm, "admissibility of a cube curve", [("cycle", {})]),
        ("bdry", _h_bdry, "cubical boundary of an admissible curve",
         [("cycle", {})]),
        ("wmap", _h_wmap, "comparison map of a cube curve", [("cycle", {})]),
        ("wcheck", _h_wcheck, "d(W(Z)) = W(dZ) on an admissible curve",
         [("cycle", {})]),
        ("h", _h_h, "lifted reciprocity value of a split wedge",
         [("wedge", {})]),
        ("decomp", _h_decomp, "split-cone decomposition with certificate",
         [("wedge", {})]),
        ("homotopy-check", _h_homotopy_check, "homotopy triangle identities",
         [("--sub", {"action": "store_true",
                     "help": "treat the input as a weight-two element "
                             "(upper triangle)"}),
          ("input", {})]),
        ("suite", _h_suite, "full acceptance corpus with pass/fail table",
         [("--seed", {"type": int, "default": 7}),
          ("--scale", {"type": int, "default": 100,
                       "help": "corpus size as a percentage (default: 100)"})]),
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tamesym",
        description="Exact tame-symbol calculus over Q.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, handler, help_text, arguments in _verbs():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")
        for name, options in arguments:
            p.add_argument(name, **options)
        p.set_defaults(handler=handler,
                       names=[name.lstrip("-") for name, _ in arguments])
    return parser


def _input_record(args) -> dict:
    """The verb's declared arguments that have a value, as text."""
    if args.verb == "homotopy-check":  # named by what --sub reads it as
        return {"gamma" if args.sub else "wedge": args.input}
    values = ((name, getattr(args, name)) for name in args.names)
    return {name: " ".join(v) if isinstance(v, list) else str(v)
            for name, v in values if v is not None}


def _emit_json(verb: str, input_obj: dict, result, certificates: list,
               status: str) -> None:
    payload = {"verb": verb, "input": input_obj, "result": result,
               "certificates": certificates, "status": status}
    print(json.dumps(payload, sort_keys=True))


def _report_error(args, message: str, status: str) -> None:
    if args.format == "json":
        _emit_json(args.verb, _input_record(args), message, [], status)
    else:
        print(f"{args.verb}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    reg = AtomRegistry()
    try:
        out = args.handler(args, reg)
        if isinstance(out, str):  # a one-line answer asserts nothing
            out = Outcome(out, [], True, [out])
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
        _emit_json(args.verb, _input_record(args), out.result,
                   out.certificates, "ok" if out.ok else "violation")
    else:
        print("\n".join(out.lines))
    return 0 if out.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
