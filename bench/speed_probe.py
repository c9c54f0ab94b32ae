"""A speed probe: how fast the machine runs at each moment of a run.

On a few virtual cores of a shared host the same code runs up to about 1.6
times slower in spells that last from a second to a minute, and a run of
twenty seconds can fall wholly inside one; the spread across runs then
measures the host, not the program.  So while the benchmark times its items,
a SIGALRM every ``PERIOD`` seconds runs a small fixed kernel in the same
thread and records how long it took.  An item's time is divided by the
median kernel time around it and multiplied by the kernel's nominal time
(``NOMINAL_S``): it reads as the seconds the item takes when the kernel
runs at its nominal speed.

The kernel has parts, each timed on its own: a short LSQR on a small sparse
matrix, which is per-call overhead of scipy and numpy like the workloads'
many small solves; an interpreted arithmetic loop; and a small dense SVD.
Kinds of work do not slow down alike: in a fast spell interpreted code and
LSQR gained about 1.4 times and dense LAPACK about 1.25.  So an item names
the parts that resemble it, and its time is scaled by their sum; LSQR and
the loop suit every item but the dense spectral certificates.  Of several
kernels tried (dict lookups in a large table, a sparse product larger than
the cache) that pair tracked the other items best.  No part touches
``lin2complex``, so no change to the program can move it.  The probe runs
on the thread it measures, between two bytecodes of the program, and its
own time is taken out of the item's.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

PERIOD = 0.05
# each part's time on the 2-vCPU machine the benchmark was tuned on, in its
# fast spells; they only set the scale the figures read in
NOMINAL_S = {"lsqr": 0.0006, "python": 0.0002, "dense": 0.00045}
DEFAULT_PARTS = ("lsqr", "python")
MIN_WINDOW = 1.0  # seconds of samples around an item, at the least
MIN_SAMPLES = 10

_MATRIX = sp.random(300, 200, density=0.02, random_state=4, format="csr")
_RHS = np.ones(_MATRIX.shape[0])
_DENSE = np.random.default_rng(7).standard_normal((80, 80))


def _lsqr() -> None:
    sla.lsqr(_MATRIX, _RHS, atol=0.0, btol=0.0, iter_lim=5)


def _python() -> None:
    total = 0
    for i in range(3000):
        total += i * i


def _dense() -> None:
    np.linalg.svd(_DENSE, compute_uv=False)


PARTS = {"lsqr": _lsqr, "python": _python, "dense": _dense}


def nominal(parts=DEFAULT_PARTS) -> float:
    return sum(NOMINAL_S[name] for name in parts)


class SpeedProbe:
    """Samples the time of each of ``parts`` every ``PERIOD`` seconds inside
    ``with``."""

    def __init__(self, parts=DEFAULT_PARTS):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: dict[str, list[float]] = {name: [] for name in parts}

    def _tick(self, signum, frame) -> None:
        start = now = time.perf_counter()
        for name, samples in self.times.items():
            PARTS[name]()
            samples.append(time.perf_counter() - now)
            now += samples[-1]
        self.starts.append(start)
        self.ends.append(now)

    def __enter__(self) -> SpeedProbe:
        self._tick(None, None)  # one sample at least, however short the block
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start: float, end: float) -> range:
        return range(bisect.bisect_left(self.starts, start),
                     bisect.bisect_right(self.starts, end))

    def own_time(self, start: float, end: float) -> float:
        """Seconds the probe itself ran between ``start`` and ``end``."""
        return sum(self.ends[i] - self.starts[i] for i in self._between(start, end))

    def speed(self, start: float, end: float, parts=DEFAULT_PARTS) -> float:
        """Sum over ``parts`` of their median time around [start, end]: the
        window is widened, centred, to ``MIN_WINDOW`` and then until it holds
        ``MIN_SAMPLES``."""
        centre, half = (start + end) / 2, max((end - start) / 2, MIN_WINDOW / 2)
        while True:
            picked = self._between(centre - half, centre + half)
            if len(picked) >= min(MIN_SAMPLES, len(self.starts)):
                return sum(statistics.median(self.times[name][i] for i in picked)
                           for name in parts)
            half *= 2

    def seconds(self, start: float, end: float, parts=DEFAULT_PARTS) -> float:
        """The time from ``start`` to ``end``, less the probe's own, at the
        nominal speed of ``parts``."""
        own = self.own_time(start, end)
        return (end - start - own) * nominal(parts) / self.speed(start, end, parts)
