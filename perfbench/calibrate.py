"""Host-speed calibration.

The reference host is a small shared VM whose speed drifts by 10-30 %
over minutes.  Left alone, that drift is the largest term in every
timing metric's run-to-run spread and would make the regression bounds
useless.  So every run also times a fixed kernel — interpreter
bytecode, dict inserts and numpy broadcast arithmetic, nothing of the
program under test — between ops, about once every 50 ms, and divides
its timing metrics by ``median(kernel time) / reference kernel time``.
On a quiet reference host the factor is 1 and normalised equals raw;
the raw values and the factor are printed and recorded next to the
normalised ones.  A change to the program cannot move the kernel, so
it cannot move the factor.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

import numpy as np

#: Seconds between kernel samples.
INTERVAL_S = 0.05
#: Median kernel time on the reference host while quiet; frozen so that
#: normalised values read as "milliseconds on the quiet reference host".
REFERENCE_KERNEL_S = 0.00100

_A = np.random.default_rng(0).random((4096, 32))
_B = _A.copy()


def kernel() -> float:
    t0 = perf_counter()
    total = 0
    for i in range(2000):
        total += i * i
    table = {}
    for i in range(700):
        table[i] = (i, total)
    ((_A - 0.5) * (_A - 0.5) + _B * _B <= 0.3).any(axis=1)
    return perf_counter() - t0


class Calibrator:
    """Collects kernel samples; call :meth:`maybe_sample` between ops
    (never inside a timed section)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._next = 0.0

    def maybe_sample(self) -> None:
        now = perf_counter()
        if now < self._next:
            return
        # claimed before sampling: two generator threads calling at once
        # take at most one extra sample, which is harmless
        self._next = now + INTERVAL_S
        elapsed = kernel()
        self.samples.append(elapsed)
        self.spent_s += elapsed
        self._next = perf_counter() + INTERVAL_S

    def burst(self, n: int = 5) -> None:
        """``n`` samples back to back (around a set-up, where there are
        no ops to sample between)."""
        for _ in range(n):
            self._next = 0.0
            self.maybe_sample()

    def factor(self) -> float:
        """> 1 when this host currently runs slower than the reference."""
        return statistics.median(self.samples) / REFERENCE_KERNEL_S
