"""Machine-speed calibration for the benchmark's timings.

On a shared two-vCPU Intel Xeon VM at 2.1 GHz, the same interpreter
work runs at two speeds that alternate every few seconds, about 1.6x
apart (README.md, "Noise"). Run-to-run spreads of raw wall time reach
20%, above any useful bound. Every timed slice is therefore measured
between two runs of a fixed calibration loop, and scaled by
REFERENCE_S / (mean calibration time): times are reported in seconds of
the reference machine. The loop is exact Fraction and dict work in plain
Python, the same kind of work tamesym does, and it never calls tamesym,
so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# median time of one calibration loop on the reference machine (2-vCPU
# Intel Xeon VM at 2.1 GHz, Python 3.11.7, fast phase)
REFERENCE_S = 0.0015

_COEFFS = [Fraction(i, i + 1) for i in range(1, 30)]


def _loop() -> Fraction:
    acc = Fraction(0)
    for k in range(14):
        x = Fraction(k + 1, 7)
        v = Fraction(0)
        for c in reversed(_COEFFS):
            v = v * x + c
        acc += v
    counts: dict = {}
    for i in range(1000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return acc


def measure() -> float:
    """Median of three timed calibration loops, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two calibrations into
    reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
