"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--runs 10]

Runs every workload of BENCHMARK.json --runs times, with seeds 1..runs,
exactly as BENCHMARK.json runs it, and reports for every end-to-end metric the
median, the quartiles and the spread (q3 - q1) / median against the
metric's bound; the aim is a spread below a third of the bound. It checks
that the share of failed operations is the same in every run, then runs
the traced benchmark twice on one seed and checks that the per-layer
counts repeat exactly. Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# per-layer metrics that are counts of work, so must repeat exactly
COUNT_UNITS = ("count", "bytes", "bits", "ratio")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True

    for w in workloads:
        results, took = [], []
        for i in range(args.runs):
            t0 = time.perf_counter()
            results.append(run(w, 1 + i, spec["run_seconds"], 0))
            took.append(time.perf_counter() - t0)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        same_share = len(shares) == 1
        correct = all(r["correct"] for r in results)
        ok &= same_share and correct
        print(f"{w}: {args.runs} runs, correct {correct}, failed share "
              f"{' '.join(str(s) for s in sorted(shares))} "
              f"({'same' if same_share else 'DIFFERS'} in every run); one run "
              f"took {statistics.median(took):.1f} s median, {max(took):.1f} s max")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            ok &= spread <= bound
            print(f"  {name:<12} median {med:>10.4f} q1 {q1:>10.4f} "
                  f"q3 {q3:>10.4f} spread {spread:6.3f} bound {bound:.2f} "
                  f"{verdict}")

    for w in workloads:
        a, b = (run(w, 1, spec["run_seconds"], 1) for _ in range(2))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        counts = [n for n, u in units.items() if u in COUNT_UNITS]
        diff = [n for n in counts
                if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        ok &= not diff
        print(f"{w}: traced twice at seed 1: "
              f"{len(counts) - len(diff)}/{len(counts)} counts identical"
              + (f", differ: {', '.join(diff)}" if diff else "")
              + f"; trace.overhead_s {a['metrics']['trace.overhead_s']['value']:.3f}"
              f" and {b['metrics']['trace.overhead_s']['value']:.3f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
