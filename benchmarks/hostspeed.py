"""Host speed, read from a fixed kernel timed next to every timed sample.

The shared host this benchmark was built on changes speed by up to 2x over
seconds to minutes, with CPU time rising as much as wall time (README.md,
"Host speed").  Each timed sample (a `train` call, a set-up, a hold-out
forward) is therefore bracketed by two runs of `kernel_s`, and its time is
rescaled to the host speed at which the kernel takes `REFERENCE_S`:

    reference seconds = wall seconds * REFERENCE_S / (mean of the two kernel times)

The kernel is frozen here, outside the program, so no change to the program
moves it.  It is the same kind of work that dominates the benchmark's
workloads: a Python loop of small numpy row updates.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on the 2-core Xeon guest the benchmark was built on, in a
# fast period of the host.  Any fixed value works; changing it rescales every
# reference-speed time and so breaks comparison with earlier results.
REFERENCE_S = 0.1

_SIZE = 16
_ROTATIONS = 120
_SWEEPS = 150
_COS = np.cos(np.linspace(0.0, 2.0 * np.pi, _ROTATIONS))
_SIN = np.sin(np.linspace(0.0, 2.0 * np.pi, _ROTATIONS))


def kernel_s() -> float:
    """Wall time of a fixed amount of work: Givens rotations applied row by row."""
    u = np.eye(_SIZE)
    t0 = time.perf_counter()
    for _ in range(_SWEEPS):
        for k in range(_ROTATIONS):
            i = k % (_SIZE - 1)
            ri = _COS[k] * u[i] + _SIN[k] * u[i + 1]
            rj = -_SIN[k] * u[i] + _COS[k] * u[i + 1]
            u[i] = ri
            u[i + 1] = rj
    return time.perf_counter() - t0


def to_reference(seconds: float, kernel: float) -> float:
    """A wall time rescaled to the reference host speed, given the kernel time next to it."""
    return seconds * REFERENCE_S / kernel


class Bracket:
    """Runs the kernel between consecutive samples, so each sample has one kernel run on each side."""

    def __init__(self) -> None:
        kernel_s()  # first-use costs
        self.kernel_times = [kernel_s()]

    def around(self, fn):
        """(fn(), mean kernel time of the runs just before and just after it)."""
        before = self.kernel_times[-1]
        result = fn()
        self.kernel_times.append(kernel_s())
        return result, (before + self.kernel_times[-1]) / 2

    def speed(self) -> float:
        """Median host speed over the run, as a multiple of the reference speed."""
        return REFERENCE_S / statistics.median(self.kernel_times)
