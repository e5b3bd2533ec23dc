"""Host speed from a fixed reference kernel, timed next to the workload.

A shared 2-core host's speed can drift by 15% and more over minutes, and
longer runs do not average it out (see README.md).  The reference kernel is
frozen code of the benchmark's own that shares nothing with `uavbc`, so no
change to the program can change it: shifted maxima over a float32 table of
the DP oracle's (position x user-1 bin) shape.  Of the kernels tried, this
array-bound one followed the solve times of all three workloads most
closely; an interpreter-bound loop over small vectors over-reacted to the
host's state (README.md).  Bursts run at the start of a round and after each
timed call, outside the solve time, and their median gives the host's speed
during the round.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Reference burst time (s) that scaled times are expressed at: about the
# median burst on the shared 2-core x86-64 host the benchmark was tuned on.
REFERENCE_BURST_S = 0.014
SHARE = 0.04      # calibration time per second of measured work
MIN_BUDGET_S = 0.04

_perf = time.perf_counter
_TABLE = np.random.default_rng(20180102).standard_normal((51, 8192)).astype(np.float32)


def _shifted_max(table):
    best = table.copy()
    cand = np.empty_like(table)
    for s in range(1, 9):
        cand[:, :s] = -np.inf
        np.add(table[:, :-s], np.float32(0.01 * s), out=cand[:, s:])
        np.maximum(best, cand, out=best)
    return float(best[:, -1].sum())


def burst() -> float:
    """Seconds taken by one fixed unit of reference work."""
    t0 = _perf()
    for _ in range(5):
        _shifted_max(_TABLE)
    return _perf() - t0


class Calibration:
    """Reference bursts taken at the start of a round and after each timed call."""

    def __init__(self):
        self.bursts: list[float] = []
        self.after_point(0.0)

    def after_point(self, seconds: float) -> None:
        """Run bursts for about `SHARE` of a call's `seconds`, at least one."""
        budget = max(MIN_BUDGET_S, SHARE * seconds)
        spent = 0.0
        while spent < budget:
            self.bursts.append(burst())
            spent += self.bursts[-1]

    def scaled(self, seconds: float) -> float:
        """`seconds` of work as it would have taken at the reference speed."""
        return seconds * REFERENCE_BURST_S / statistics.median(self.bursts)
