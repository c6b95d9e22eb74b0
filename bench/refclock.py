"""The reference clock: a fixed kernel of stdlib Fraction matrix arithmetic,
timed between operations, that takes the host's phases out of operation
times.

The reference box runs the same code up to half again as slowly in some
phases as in others, and the phases last seconds to minutes, longer than a
run.  A kernel that slows down with quadalg tracks them: a product of two
monomial matrices of Fractions, the kind of work that dominates `ledger`.
It uses no quadalg code, so no change to quadalg changes its time.  A tiny
Fraction loop does not track the phases (see README.md).

The kernel is sampled between the operations of a pass.  A sample is the
median of REPEATS kernel times, about 0.1 s in all.  A pass's time is
multiplied by NOMINAL_S over the pass's mean sample: the host switches
between a fast and a slow state within seconds, a pass's time sums its
moments in each, and the mean sample weighs them alike.  NOMINAL_S is the
kernel's median time on the reference box; it is fixed and never retuned,
so that figures stay comparable from one version of quadalg to the next.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.035  # the kernel's median time on the reference box
INTERVAL_S = 0.5  # sample again once this much operation time has passed
REPEATS = 3  # a sample is the median of this many kernel times
N = 20


def _monomial(shift: int, scale: int) -> list[list[Fraction]]:
    m = [[Fraction(0)] * N for _ in range(N)]
    for i in range(N):
        m[i][(shift * i + 3) % N] = Fraction(scale * (i + 1), i + 2)
    return m


def kernel() -> Fraction:
    """One dense product of two N×N monomial matrices (N**3 Fraction
    multiplications, most of them by zero), as quadalg's `mat_mul` does it."""
    a, b = _monomial(7, 1), _monomial(11, -3)
    c = [[sum((a[i][k] * b[k][j] for k in range(N)), Fraction(0)) for j in range(N)] for i in range(N)]
    return sum(c[i][i] for i in range(N))


class RefClock:
    """Kernel samples taken between the operations of a pass: call sample()
    before the first operation, after(seconds) after each one, and finish()
    after the last; factor(samples) then scales the pass's times."""

    def __init__(self):
        self.samples: list[float] = []
        self._since = 0.0  # operation time since the last sample

    def sample(self) -> None:
        times = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t)
        self.samples.append(statistics.median(times))
        self._since = 0.0

    def after(self, op_s: float) -> None:
        self._since += op_s
        if self._since >= INTERVAL_S:
            self.sample()

    def finish(self) -> None:
        if self._since:
            self.sample()


def factor(samples: list[float]) -> float:
    """What a time measured while the kernel took `samples` is multiplied
    by: NOMINAL_S over the mean sample."""
    return NOMINAL_S / statistics.fmean(samples)
