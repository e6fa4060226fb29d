"""Machine-speed anchor: a fixed kernel timed beside the workload.

The CPU speed of a shared 2-vCPU virtual machine drifts by up to 2x over
tens of seconds, on both vCPUs alike, so raw wall times of identical runs
spread by 12-40 %.  The kernel below mixes small numpy operations with Python
arithmetic, as the per-trial loop and the closed forms do, and its time
tracks that drift.  Every time the benchmark reports is the measured time
multiplied by REFERENCE_S / (anchor time measured next to it): the time at
the speed where this kernel takes REFERENCE_S.  The kernel is part of the
benchmark, not of the program, so a change to the program does not move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.020


def anchor_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    acc = 0.0
    for i in range(1500):
        z = rng.standard_normal(16).view(np.complex128)
        acc += float(np.outer(z, z.conj())[0, 0].real) + i * 0.5
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start
