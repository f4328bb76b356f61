"""Acceptance gate: every shipped guarantee at full scale, exactly.

Each criterion runs at seed 7 and scale 100 (the sizes named in the
corresponding checks: 20 differentials, 100 reciprocity wedges, 50
chain-cancellation elements, 50 five-term tuples, 30 comparison squares,
100 + 100 homotopy triangles, 200 decomposition certificates, and so on).
Equality everywhere is exact; there is no numeric tolerance anywhere in
this file or in the code it calls. Run with -v to get one pass or fail
line per criterion.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from tamesym.suite import run_criterion

SEED = 7
SCALE = 100

SUITE_GOLDEN = Path(__file__).resolve().parent / "golden" / "suite_seed7.txt"

BUDGETS = {"C1": 1.0, "C2": 5.0, "C3": 30.0}

NAMED = [
    ("C1", "totaro-differential"),
    ("C2", "weil-reciprocity"),
    ("C3", "parshin-d-squared"),
    ("C4", "five-term-kernel"),
    ("C5", "chow-comparison-morphism"),
    ("C6", "homotopy-triangles"),
    ("C7", "decomposition-certificate"),
    ("C8", "blowup-residue"),
    ("C9", "two-slot-vanishing"),
]


@pytest.mark.parametrize(
    "cid,title", [pytest.param(c, t, id=f"{c}-{t}") for c, t in NAMED])
def test_criterion(cid, title):
    start = time.perf_counter()
    res = run_criterion(cid, seed=SEED, scale=SCALE)
    elapsed = time.perf_counter() - start
    status = "PASS" if res.ok else "FAIL"
    line = f"{cid} {status} {title} ({res.detail}, {elapsed:.2f}s)"
    print(line)
    assert res.title == title
    assert res.ok, line
    if cid in BUDGETS:
        assert elapsed < BUDGETS[cid], \
            f"{cid} took {elapsed:.2f}s, budget {BUDGETS[cid]}s"


def test_criterion_C10_suite_deterministic():
    """The full command-line suite finishes in under two minutes, exits
    zero, and two runs with the same seed produce identical bytes, equal to
    the committed golden."""
    cmd = [sys.executable, "-m", "tamesym", "suite", "--seed", str(SEED)]
    start = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True)
    elapsed = time.perf_counter() - start
    second = subprocess.run(cmd, capture_output=True)
    status = "PASS" if first.returncode == 0 \
        and first.stdout == second.stdout else "FAIL"
    print(f"C10 {status} suite-determinism (exit {first.returncode}, "
          f"{elapsed:.2f}s)")
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout == SUITE_GOLDEN.read_bytes()
    assert first.stderr == b"" and second.stderr == b""
    assert elapsed < 120.0, f"suite took {elapsed:.2f}s, budget 120s"
