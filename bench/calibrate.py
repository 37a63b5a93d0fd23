"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed one process gets drifts by up to 2x, and it
changes within a second: a fixed kernel run back to back takes anywhere
from 1.2x to 2.3x its idle time, and the next run can land at the other end.
A kernel run before and after a 20 s op cannot follow that.  The runner
therefore samples the speed *during* the ops: a ``Sampler`` runs a short
fixed kernel (about 1.4 ms on an idle core) from a ``SIGALRM`` interval
timer every ``INTERVAL_S`` seconds.  Python runs the handler between
bytecodes of the main thread, so the samples interleave with the op's own
work, and the time spent in them is taken out of every op's time
(``Sampler.clock``).  A round's time is scaled by the mean of
``REFERENCE_S / kernel_time`` over the samples taken during it: seconds at
the reference speed, the time the work would take on the machine the
bounds were set on, when that machine is idle.  The kernel does not use
upbkit; it mixes what upbkit's hot paths do: batched 8x8 complex linear
algebra, small numpy calls in Python loops, and plain Python arithmetic.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# the kernel's time on an idle core of the 2-vCPU x86-64 VM (numpy 2.4,
# OpenBLAS 0.3.31, one thread) on which the bounds were set
REFERENCE_S = 0.00135
INTERVAL_S = 0.05
MIN_SAMPLES = 5  # a window with fewer samples uses the nearest ones


class Kernel:
    """The calibration kernel on fixed inputs; calling it returns its time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((50, 8, 8)) + 1j * rng.standard_normal((50, 8, 8))
        self.a = a
        self.h = a + a.conj().transpose(0, 2, 1)
        self.v = rng.standard_normal(2)
        self()  # the first call pays one-off numpy and LAPACK set-up

    def __call__(self) -> float:
        t0 = perf_counter()
        for _ in range(2):
            np.linalg.eigvalsh(self.h)
            np.einsum("nij,njk->nik", self.a, self.a)
            x = self.v
            for _ in range(20):
                x = np.kron(x, self.v)[:2] / 2
            sum(i * i for i in range(300))
        return perf_counter() - t0


def speed_factor(kernel_times) -> float:
    """Scale factor from wall seconds to reference seconds: the mean speed
    relative to the reference over the given kernel times."""
    return statistics.fmean(REFERENCE_S / k for k in kernel_times)


class Sampler:
    """Speed samples taken every ``INTERVAL_S`` seconds while active
    (``with sampler:``), each ``(start, kernel seconds)``."""

    def __init__(self):
        self.kernel = Kernel()
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0  # seconds spent sampling so far
        self._previous = None

    def sample(self) -> None:
        t0 = perf_counter()
        self.samples.append((t0, self.kernel()))
        self.paused += perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """Wall seconds not spent sampling: differences of it time the ops."""
        while True:
            paused = self.paused
            now = perf_counter()
            if paused == self.paused:  # no sample ran between the two reads
                return now - paused

    def factor(self, t0: float, t1: float) -> float:
        """Scale factor for work done between wall times ``t0`` and ``t1``."""
        inside = [k for s, k in self.samples if t0 <= s < t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - mid))
            inside = [k for _, k in nearest[:MIN_SAMPLES]]
        return speed_factor(inside)
