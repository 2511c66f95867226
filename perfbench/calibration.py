"""Machine-speed calibration: a fixed kernel timed while measurements run.

On a shared host the same work can take up to twice as long, in spells
of a fraction of a second to minutes, while a neighbour is busy.  A
:class:`Sampler` interrupts the measured work every ``INTERVAL_S`` (a
``SIGALRM`` handler, so it runs in the measuring thread, on the same
core, between two bytecodes) and times a small kernel that does not
touch the program.  A measured interval then reads, at reference speed,
as its time minus the samples inside it, scaled by ``REFERENCE_S`` over
the mean kernel time inside it: the time it would take on a machine
where the kernel takes ``REFERENCE_S``.  The kernel mixes what the
sizing flow spends its time on: interpreter loops, small NumPy
operations and small stacked linear solves.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Wall time between two kernel samples.
INTERVAL_S = 0.05
#: The kernel's time on the 2-core Xeon the benchmark was written on,
#: when no neighbour was busy.
REFERENCE_S = 0.0013

_MATRICES = np.broadcast_to(
    np.eye(8) * 4.0 + np.linspace(0.0, 1.0, 64).reshape(8, 8), (32, 8, 8)
).copy()


def kernel_seconds() -> float:
    """Time one run of the kernel."""
    start = time.perf_counter()
    total = 0.0
    for i in range(8000):
        total += (i % 7) * 0.5
    values = np.linspace(0.1, 1.0, 64)
    for _ in range(120):
        values = np.sqrt(values * values + 0.01) - 0.005
    rhs = np.ones((32, 8, 1))
    for _ in range(16):
        rhs = np.linalg.solve(_MATRICES, rhs) + 1.0
    return time.perf_counter() - start


class Sampler:
    """Kernel samples taken every ``INTERVAL_S`` inside a ``with`` block.

    Use from the main thread only (signal handlers run there).
    """

    def __init__(self):
        #: ``(start, seconds)`` of every kernel run.
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, kernel_seconds()))

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval ``[start, end)`` without its samples, at
        reference speed.  An interval too short to hold a sample is
        scaled by the sample nearest to it."""
        inside = [seconds for at, seconds in self.samples if start <= at < end]
        if inside:
            return (end - start - sum(inside)) * REFERENCE_S / statistics.fmean(inside)
        if not self.samples:
            return end - start
        _, nearest = min(self.samples, key=lambda sample: abs(sample[0] - start))
        return (end - start) * REFERENCE_S / nearest
