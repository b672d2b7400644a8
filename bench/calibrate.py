"""Host-speed calibration for the benchmark's child processes.

The benchmark's host is shared, and the speed of pure Python on it swings
by up to 2x over minutes. Each timed process therefore also times a fixed
task, with no newsstyle code in it, just before and just after its work,
on the same core. The benchmark scales the work's time by
CAL_REFERENCE_S over the task's time.
"""

from __future__ import annotations

import random
import time

import workloads as wl

# the task's time, as the fastest of SAMPLES runs, in a fresh process on an
# idle core of the reference host (a 2-core container)
CAL_REFERENCE_S = 0.0053
SAMPLES = 5

_TEXT = " ".join(wl.narrow_sentence(random.Random(0), label) for label in wl.LABELS * 60)
_NUMBERS = [(i * 7919 % 1000) / 37.0 for i in range(3000)]


def calibrate() -> float:
    """Fastest of SAMPLES runs of a fixed task mixing the pipeline's kinds
    of work: a word scan with dict counts, then moments and a rank sort
    over floats."""
    best = float("inf")
    for _ in range(SAMPLES):
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for word in _TEXT.split():
            key = word.strip('.,"').lower()
            counts[key] = counts.get(key, 0) + wl.count_tokens(word)
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        mean = sum(_NUMBERS) / len(_NUMBERS)
        sum((x - mean) ** 2 for x in _NUMBERS)
        sorted(range(len(_NUMBERS)), key=_NUMBERS.__getitem__)
        best = min(best, time.perf_counter() - start)
    return best
