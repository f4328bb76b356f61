"""tamesym benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload suite|session|factor --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload runs in its own fresh interpreter (perfbench/worker.py),
single-threaded. With --trace 0 the run reports setup_s, wall_s,
op_p50_ms, op_p95_ms and peak_rss_mb; with --trace 1 it runs the first
round once untraced and once traced, and reports the per-layer metrics
plus trace.overhead_s, the difference between the two. Times are in
reference seconds (calib.py). The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from tracer import metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("suite", "session", "factor")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_p95_ms": "ms", "peak_rss_mb": "MB"}


def worker(args: list[str]) -> dict:
    """Run the worker in a fresh interpreter and return its JSON line."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> float:
    """Median time, in reference seconds, from a fresh interpreter to
    tamesym imported and one warm-up call per verb the workload uses."""
    times = []
    before = calib.measure()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "worker.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--setup-only"], check=True, timeout=60)
        elapsed = time.perf_counter() - t0
        after = calib.measure()
        times.append(elapsed * calib.scale(before, after))
        before = after
    return statistics.median(times)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup = setup_seconds(workload, seed)
    res = worker(["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds)])
    lat = res["latencies_ms"]
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(res["rounds_s"]),
        "op_p50_ms": statistics.median(lat),
        "op_p95_ms": statistics.quantiles(lat, n=20)[18],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                 for k, v in values.items()}


def per_layer(workload: str, seed: int) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", str(seed), "--rounds", "1"]
    plain = worker(base)
    res = worker(base + ["--trace"])
    values = dict(res["trace"])
    values["trace.overhead_s"] = res["rounds_s"][0] - plain["rounds_s"][0]
    res["correct"] = res["correct"] and plain["correct"]
    return res, {k: {"value": values[k], "unit": u}
                 for k, u in metric_units().items()}


def report(workload: str, res: dict, metrics: dict) -> None:
    print(f"{workload}: attempted {res['attempted']} failed {res['failed']} "
          f"rounds {len(res['rounds_s'])} refusals {json.dumps(res['refusals'])}")
    print(f"  timed region {sum(res['rounds_s']):.3f} reference s, "
          f"{res['raw_s']:.3f} s of wall time")
    for name, why in sorted(res["failed_inputs"].items()):
        print(f"  known fault {name}: {why}")
    for msg in res["unexpected"]:
        print(f"  unexpected refusal {msg}")
    for msg in res["errors"]:
        print(f"  WRONG {msg}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tamesym" / "__init__.py").is_file():
        sys.exit(f"no tamesym sources under {ROOT / 'src'}")

    if args.workload == "all":
        summary = {}
        for w in WORKLOADS:
            res, metrics = end_to_end(w, args.seed, args.seconds)
            report(w, res, metrics)
            summary[w] = {"correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}
        print(json.dumps(summary))
        return

    if args.trace:
        res, metrics = per_layer(args.workload, args.seed)
    else:
        res, metrics = end_to_end(args.workload, args.seed, args.seconds)
    report(args.workload, res, metrics)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
