"""Host speed reference: every timed figure is scaled to one nominal CPU speed.

The benchmark runs on a few virtual CPUs of a shared host whose speed drifts:
the same training epoch takes 70 ms or 125 ms of user CPU time within one
minute, with no page faults and no steal time, because other tenants share
the physical cores.  Wall time and CPU time both move with that drift, by
more than any bound a regression check can afford.

So a ``Sampler`` runs a small fixed kernel (numpy arithmetic, JSON encoding
and a Python loop, none of it hivae code and none of it making objects the
garbage collector tracks) from a timer signal every
``PERIOD_S`` seconds while the workload runs, in the workload's own process
and thread.  The kernel's speed relative to ``NOMINAL_KERNEL_S`` is the
host's speed at that moment.  A timed window of ``wall`` seconds holding
kernel samples k_1..k_n then took

    nominal_s = (wall - sum(k)) * NOMINAL_KERNEL_S * mean(1 / k)

seconds of a host on which the kernel takes ``NOMINAL_KERNEL_S``: the kernel
time is taken out, and the mean of the sampled speeds is the host's average
speed over the window, since the samples are spread evenly over its time.
The benchmark reports every rate and time on that nominal host; the raw wall
times are printed beside them.
"""

from __future__ import annotations

import json
import signal
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PERIOD_S = 0.025
# About one kernel call's time on the 2-vCPU Intel Xeon host the benchmark was
# written on (Python 3.11, numpy 2.4, one BLAS thread), so that nominal figures
# there are close to wall-clock ones.  It only sets the scale of the figures.
NOMINAL_KERNEL_S = 0.001

_rng = np.random.default_rng(0)
# Arrays of a few hundred kB, like a training batch's activations, so the
# kernel feels contention in the caches the workload uses, not only in L1.
_X = _rng.standard_normal((512, 32))
_W = _rng.standard_normal((32, 32)) * 0.1
_RECORDS = [{"col": i % 7, "row": i, "value": float(v)} for i, v in enumerate(_rng.standard_normal(24))]


def kernel() -> None:
    x = _X
    for _ in range(3):
        x = np.tanh(x @ _W) + np.exp(-np.abs(x)) * 0.5
    for _ in range(2):
        json.dumps(_RECORDS, sort_keys=True)
    total = 0
    for i in range(600):
        total += i * i


@dataclass
class Totals:
    """Sampler totals at one instant; differences of two give a window."""

    t: float
    n: int
    kernel_s: float
    speed_sum: float  # sum of NOMINAL_KERNEL_S / k over the samples

    def __sub__(self, other: "Totals") -> "Totals":
        return Totals(self.t - other.t, self.n - other.n,
                      self.kernel_s - other.kernel_s, self.speed_sum - other.speed_sum)

    def nominal_s(self, wall: float | None = None) -> float:
        """Seconds the window would take on the nominal host.

        ``wall`` overrides the window's own length, for a child process
        whose whole life the parent timed while the child sampled.
        """
        if self.n == 0:
            raise ValueError("no speed samples in the window; it is shorter than PERIOD_S")
        wall = self.t if wall is None else wall
        return (wall - self.kernel_s) * self.speed_sum / self.n

    def to_dict(self) -> dict:
        return {"n": self.n, "kernel_s": self.kernel_s, "speed_sum": self.speed_sum}

    @classmethod
    def from_dict(cls, doc: dict) -> "Totals":
        return cls(0.0, doc["n"], doc["kernel_s"], doc["speed_sum"])


class Sampler:
    """Runs ``kernel`` every ``PERIOD_S`` seconds of wall time while started."""

    def __init__(self):
        self.n = 0
        self.kernel_s = 0.0
        self.speed_sum = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        k = perf_counter() - t0
        self.n += 1
        self.kernel_s += k
        self.speed_sum += NOMINAL_KERNEL_S / k

    def totals(self) -> Totals:
        return Totals(perf_counter(), self.n, self.kernel_s, self.speed_sum)

    def __enter__(self) -> "Sampler":
        kernel()  # first call warms caches and lazy imports
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
