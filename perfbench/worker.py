"""One workload in one fresh interpreter.

Usage: python3 perfbench/worker.py --workload W --seed N
           (--seconds S | --rounds R) [--trace] [--setup-only]

Imports tamesym from the checkout's src/, runs the check self-tests and one
warm-up call per verb, then runs rounds of operations until S seconds have
passed (or exactly R rounds). Only the program calls of each operation are
timed, in windows of about WINDOW_S between two calibrations (calib.py),
and reported in reference seconds; input building and output checks sit
outside. Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import calib
import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WINDOW_S = 0.25   # timed work between two calibrations


def load_program():
    """tamesym from this checkout, never from anywhere else."""
    if not (SRC / "tamesym" / "__init__.py").is_file():
        sys.exit(f"no tamesym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tamesym
    if Path(tamesym.__file__).resolve().parent != (SRC / "tamesym").resolve():
        sys.exit(f"imported tamesym from {tamesym.__file__}, not {SRC}")
    return tamesym


# ---------------------------------------------------------------------------
# workloads: warm-up, round preparation (untimed), one operation (timed)
# ---------------------------------------------------------------------------


def warm_up(T, workload: str) -> None:
    """One call per verb the workload uses, on inputs outside its stream."""
    if workload == "suite":
        T.run_criterion("C1", 0, 1)
    elif workload == "factor":
        reg = T.AtomRegistry()
        T.mult_vec(T.parse_ratfunc("(t^2+2)*(t-1)^2/(t^3+3*t+3)"), reg)
        T.mult_vec(T.parse_bifrac("(y-x^2)*(x+1)/(2*x-y^2)"), reg)
    else:
        reg = T.AtomRegistry()
        for op in (gen.SessionOp("ts", "w[(t-1)*(t^2+2), t^3+3*t+3]", "t=1"),
                   gen.SessionOp("weil", "w[t, 1-t]"),
                   gen.SessionOp("delta", "{2*t}_2 ⊗ w[t+1]"),
                   gen.SessionOp("five_term", "t=0 t=1 t=2 t=5 t=inf"),
                   gen.SessionOp("decompose", "w[t, t-1, t-2]"),
                   gen.SessionOp("h", "w[t, t-1, t-2]"),
                   gen.SessionOp("dd2", "m=1; [S: w[x-1, y-2, 3]]"),
                   gen.SessionOp("snc", "w[x-1, y-2]")):
            checks.run_session_op(T, op, reg)


class Round:
    """Prepared operations of one round, and how to run and check them."""

    def __init__(self, T, workload: str, seed: int, idx: int):
        self.T = T
        self.workload = workload
        if workload == "suite":
            self.ops = gen.suite_round(seed, idx)
        elif workload == "factor":
            self.ops = gen.factor_round(seed, idx)
            self.inputs = [[checks.build(T, s) for s in op.specs] for op in self.ops]
        else:
            self.ops = gen.session_round(seed, idx)

    def run(self, i: int):
        T, op = self.T, self.ops[i]
        if self.workload == "suite":
            return T.run_criterion(*op)
        if self.workload == "factor":
            reg = T.AtomRegistry()
            return [T.mult_vec(f, reg) for f in self.inputs[i]]
        if i == 0:
            self.reg = T.AtomRegistry()   # one registry for the whole stream
        return checks.run_session_op(T, op, self.reg)

    def check(self, i: int, out) -> str | None:
        op = self.ops[i]
        if self.workload == "suite":
            return checks.check_suite(self.T, op, out)
        if self.workload == "factor":
            return checks.check_factor(self.T, op, out)
        return checks.check_session(self.T, op, out)

    def known_fault(self, i: int) -> str:
        return "" if self.workload == "suite" else self.ops[i].known_fault


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("suite", "session", "factor"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    T = load_program()
    if args.setup_only:
        warm_up(T, args.workload)
        return
    checks.self_test(T, args.workload)
    warm_up(T, args.workload)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()

    rounds, latencies = [], []
    attempted = failed = 0
    refusals: dict[str, int] = {}
    failed_inputs: dict[str, str] = {}
    errors: list[str] = []       # wrong answers: the run is not correct
    unexpected: list[str] = []   # refusals outside the named fault inputs:
                                 # the run is not correct either
    raw_s = 0.0                  # the same timed region, unscaled
    started = time.perf_counter()
    idx = 0
    while True:
        rnd = Round(T, args.workload, args.seed, idx)
        outs = []        # (reference seconds, output) per operation
        window = []      # (raw seconds, output) since the last calibration
        if tracer is not None:
            tracer.install(T)
        before = calib.measure()
        window_start = time.perf_counter()
        for i in range(len(rnd.ops)):
            t0 = time.perf_counter()
            try:
                out = rnd.run(i)
            except Exception as exc:  # a refusal: counted, the run goes on
                out = exc
            t1 = time.perf_counter()
            window.append((t1 - t0, out))
            if t1 - window_start >= WINDOW_S or i == len(rnd.ops) - 1:
                after = calib.measure()
                factor = calib.scale(before, after)
                outs += [(s * factor, o) for s, o in window]
                raw_s += sum(s for s, _ in window)
                window, before, window_start = [], after, time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        rounds.append(sum(s for s, _ in outs))
        for i, (s, out) in enumerate(outs):
            latencies.append(s * 1e3)
            attempted += 1
            fault = rnd.known_fault(i)
            if isinstance(out, Exception):
                kind, message = type(out).__name__, str(out)
            else:
                message = rnd.check(i, out)
                kind = "WrongAnswer"
                if message is None:
                    continue
                if not fault:
                    errors.append(message)
                    continue
            failed += 1
            refusals[kind] = refusals.get(kind, 0) + 1
            if fault:
                failed_inputs[rnd.ops[i].name] = f"{kind}: {fault}"
            else:
                unexpected.append(f"{kind}: {message}")
        idx += 1
        if args.rounds and idx >= args.rounds:
            break
        if not args.rounds and time.perf_counter() - started >= args.seconds:
            break

    result = {
        "workload": args.workload,
        "rounds_s": rounds,
        "raw_s": raw_s,
        "latencies_ms": latencies,
        "attempted": attempted,
        "failed": failed,
        "refusals": refusals,
        "failed_inputs": failed_inputs,
        "errors": errors[:10],
        "unexpected": unexpected[:10],
        "correct": not errors and not unexpected,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        tracer.write_spans(Path.cwd() / ".bench_out" / f"spans-{args.workload}.bin")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
