"""Host-time measurement that survives a host whose speed changes.

The 2-core box this benchmark is pinned on switches between two speed
regimes about 25 % apart and stays in one for 10-60 s, so the raw wall time
of the same repetition spreads 10-15 % between runs: more than the
regression a bound of 10 % is meant to catch.  :class:`HostSpeed` therefore
samples, from a 100 Hz interval timer *while the program runs*, how long a
fixed pure-Python kernel takes right now; a :class:`Stopwatch` scales its
region to a host that runs the kernel in ``REFERENCE_KERNEL_S``.  Measured
on ``churn`` cells over 200 s: raw stdev/mean 7-10 %, corrected 3.5 %.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, List, Optional

#: The kernel's time on the pinning box in its slower (usual) regime, so
#: corrected seconds read like raw seconds there.
REFERENCE_KERNEL_S = 200e-6
SAMPLE_INTERVAL_S = 0.01


def _kernel() -> int:
    x = 0
    for i in range(4000):
        x += i * i % 7
    return x


class HostSpeed:
    """Times ``_kernel`` from a SIGALRM interval timer; ``samples`` grows
    by one duration per tick.  The handler runs between two bytecodes of the
    main thread and touches nothing of the program measured."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _tick(self, _signum: int, _frame: Any) -> None:
        started = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # Not SIG_DFL: a tick already on its way would kill the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


class Stopwatch:
    """Accumulates host wall and CPU time over ``with`` regions.

    Given a ``cProfile.Profile`` it profiles the same regions; given a
    started :class:`HostSpeed` it keeps the kernel samples that fell inside
    them, for :attr:`corrected`."""

    def __init__(self, profiler: Any = None, speed: Optional[HostSpeed] = None) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self._profiler = profiler
        self._speed = speed
        self._kernel_samples: List[float] = []

    def __enter__(self) -> "Stopwatch":
        if self._profiler is not None:
            self._profiler.enable()
        if self._speed is not None:
            self._mark = len(self._speed.samples)
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall += time.perf_counter() - self._wall0
        self.cpu += time.process_time() - self._cpu0
        if self._speed is not None:
            self._kernel_samples += self._speed.samples[self._mark:]
        if self._profiler is not None:
            self._profiler.disable()

    @property
    def corrected(self) -> float:
        """Wall seconds net of the sampling itself, scaled to the reference
        host speed.  Each sample stands for one interval of wall time, so the
        work done is the wall time times the mean *rate* over the samples.
        A region too short to catch a sample is returned as measured."""
        samples = self._kernel_samples
        if not samples:
            return self.wall
        rate = statistics.fmean(REFERENCE_KERNEL_S / s for s in samples)
        return (self.wall - sum(samples)) * rate
