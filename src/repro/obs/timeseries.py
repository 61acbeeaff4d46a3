"""Bounded, mergeable telemetry primitives for continuous observation.

The original ``repro.obs`` instruments keep every sample forever, which is
fine for the paper's short table runs but structurally incompatible with
soak-length experiments ("flat memory over 100k submissions") and with
feeding *online* consumers such as a malleability scheduler.  This module
provides the bounded building blocks:

* :class:`HistogramDigest` — a fixed-bin, log-spaced histogram with exact
  count/sum/min/max and estimated quantiles.  Two digests with identical
  bounds merge by adding bin counts, so parallel sweep shards can fold
  their latency distributions into one.
* :class:`SeriesBuffer` — an interval-aggregated sample series with a
  ring-buffer cap: one retained point per ``resolution`` seconds, newest
  ``capacity`` intervals kept.
* :class:`SampleColumns` — the keep-everything series of ``exact`` mode,
  held as two ``array('d')`` columns: 16 bytes and no collector-tracked
  object per sample.
* :func:`windowed_rate` — a trailing-window rate view over a cumulative
  counter's sample series.
* :class:`SpanPhaseFolder` — folds finished spans' durations into
  per-allocation-phase digests *online* (via the tracer's span-end
  observer hook) instead of post-hoc trace-tree walks.

Everything here is pure arithmetic on simulated-clock inputs — no events
are scheduled and no wall-clock state is read — so enabling these bounded
views never perturbs simulation determinism.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: Bound method caches for the per-sample hot paths (Histogram.observe and
#: SeriesBuffer.add run once per metric update; attribute lookups add up).
_log10 = math.log10

#: One time-stamped sample: ``(simulated time, value)``.
Sample = Tuple[float, float]


class HistogramDigest:
    """A fixed-memory histogram over log-spaced bins.

    Values land in geometrically spaced bins between ``lo`` and ``hi``
    (``bins_per_decade`` bins per factor of ten) plus dedicated underflow
    and overflow bins; count, sum, min and max stay exact, while quantiles
    are estimated from bin midpoints (clamped to the observed min/max).
    Memory is O(bins) regardless of how many values are observed.
    """

    __slots__ = (
        "lo",
        "hi",
        "bins_per_decade",
        "count",
        "total",
        "min",
        "max",
        "_bins",
        "_nbins",
    )

    def __init__(
        self,
        lo: float = 1e-6,
        hi: float = 1e6,
        bins_per_decade: int = 8,
    ) -> None:
        if not (0 < lo < hi):
            raise ValueError(f"digest bounds must satisfy 0 < lo < hi, got {lo}..{hi}")
        if bins_per_decade < 1:
            raise ValueError("bins_per_decade must be >= 1")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins_per_decade = int(bins_per_decade)
        self._nbins = int(round(math.log10(self.hi / self.lo) * self.bins_per_decade))
        # _bins[0] is underflow (v <= lo, including non-positive values);
        # _bins[-1] is overflow (v >= hi).
        self._bins = [0] * (self._nbins + 2)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def _index(self, value: float) -> int:
        if value <= self.lo:
            return 0
        if value >= self.hi:
            return self._nbins + 1
        idx = 1 + int(math.log10(value / self.lo) * self.bins_per_decade)
        return min(max(idx, 1), self._nbins)

    def _edge(self, i: int) -> float:
        # Lower edge of bin i (1-based interior bins).
        return self.lo * 10.0 ** ((i - 1) / self.bins_per_decade)

    def observe(self, value: float) -> None:
        """Fold one value into the digest."""
        value = float(value)
        # _index inlined: this runs once per observation.
        if value <= self.lo:
            self._bins[0] += 1
        elif value >= self.hi:
            self._bins[self._nbins + 1] += 1
        else:
            idx = 1 + int(_log10(value / self.lo) * self.bins_per_decade)
            if idx < 1:
                idx = 1
            elif idx > self._nbins:
                idx = self._nbins
            self._bins[idx] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> float:
        """Exact mean of all observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1); exact at the extremes, 0.0 when empty."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for i, n in enumerate(self._bins):
            cumulative += n
            if cumulative >= target:
                if i == 0:
                    estimate = self.min if self.min is not None else self.lo
                elif i == self._nbins + 1:
                    estimate = self.max if self.max is not None else self.hi
                else:
                    estimate = math.sqrt(self._edge(i) * self._edge(i + 1))
                lo = self.min if self.min is not None else estimate
                hi = self.max if self.max is not None else estimate
                return min(max(estimate, lo), hi)
        return self.max if self.max is not None else 0.0

    def merge(self, other: "HistogramDigest") -> "HistogramDigest":
        """Fold another digest with identical bounds into this one."""
        if (self.lo, self.hi, self.bins_per_decade) != (
            other.lo,
            other.hi,
            other.bins_per_decade,
        ):
            raise ValueError("cannot merge digests with different bin bounds")
        for i, n in enumerate(other._bins):
            self._bins[i] += n
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    def summary(self) -> Dict[str, float]:
        """Plain-dict summary (count/total/mean/p50/p95/max) for wire export."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean(),
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "max": self.max if self.max is not None else 0.0,
        }

    def __repr__(self) -> str:
        return f"<HistogramDigest n={self.count} mean={self.mean():.4f}>"


class SeriesBuffer:
    """An interval-aggregated, ring-capped sample series.

    At most one point is retained per ``resolution`` seconds of simulated
    time (the latest write in the interval wins — the right aggregate for
    cumulative counters and gauges), and at most ``capacity`` intervals
    are kept; older intervals fall off the ring and are counted in
    ``dropped``.  Memory is therefore O(capacity) for any run length.
    """

    __slots__ = ("resolution", "capacity", "dropped", "_points")

    def __init__(self, resolution: float = 1.0, capacity: int = 512) -> None:
        if resolution <= 0:
            raise ValueError("series resolution must be > 0")
        if capacity < 1:
            raise ValueError("series capacity must be >= 1")
        self.resolution = float(resolution)
        self.capacity = int(capacity)
        self.dropped = 0
        self._points: Deque[List[float]] = deque(maxlen=self.capacity)

    def add(self, t: float, value: float) -> None:
        """Record ``value`` at simulated time ``t`` (monotone ``t`` expected)."""
        bucket = t // self.resolution
        points = self._points
        if points:
            last = points[-1]
            if last[0] == bucket:
                last[1] = t
                last[2] = value
                return
            if len(points) == self.capacity:
                self.dropped += 1
        points.append([bucket, t, value])

    def samples(self) -> List[Sample]:
        """The retained ``(time, value)`` points, oldest first."""
        return [(t, v) for _, t, v in self._points]

    def last(self) -> Optional[Sample]:
        """The most recent retained sample, if any."""
        if not self._points:
            return None
        _, t, v = self._points[-1]
        return (t, v)

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        return (
            f"<SeriesBuffer n={len(self._points)}/{self.capacity} "
            f"res={self.resolution}s dropped={self.dropped}>"
        )


class SampleColumns:
    """An unbounded ``(time, value)`` series held as two float columns.

    Reads like the list of ``(t, v)`` tuples it replaces — length, index,
    slice, iteration, ``reversed`` and ``==`` against any sequence of pairs
    — but a sample is two doubles in ``times`` and ``values``: no tuple, no
    boxed float, nothing for the host's cyclic collector to walk.  Readers
    that only need one column (:func:`windowed_rate`, percentiles) take it
    directly.
    """

    __slots__ = ("times", "values")

    def __init__(self) -> None:
        self.times = array("d")
        self.values = array("d")

    def add(self, t: float, value: float) -> None:
        """Record ``value`` at simulated time ``t``."""
        self.times.append(t)
        self.values.append(value)

    def samples(self) -> "SampleColumns":
        """The series itself (the instruments' common series interface)."""
        return self

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self.times[index], self.values[index]))
        return (self.times[index], self.values[index])

    def __iter__(self) -> Iterator[Sample]:
        return zip(self.times, self.values)

    def __reversed__(self) -> Iterator[Sample]:
        return zip(reversed(self.times), reversed(self.values))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SampleColumns):
            return self.times == other.times and self.values == other.values
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def windowed_rate(
    samples: Union[Sequence[Sample], SampleColumns],
    now: float,
    window: float = 60.0,
) -> float:
    """Average increase per second of a cumulative series over the window.

    ``samples`` is a ``(time, value)`` series with non-decreasing values (a
    counter's sample series, exact or bounded).  The baseline is the last
    sample at or before ``now - window``; if the retained series starts
    inside the window the baseline is 0.0 (the counter's origin).
    """
    if window <= 0:
        raise ValueError("rate window must be > 0")
    if not samples:
        return 0.0
    cutoff = now - window
    baseline = 0.0
    if isinstance(samples, SampleColumns):
        times, values = samples.times, samples.values
        latest = values[-1]
        for i in range(len(times) - 1, -1, -1):
            if times[i] <= cutoff:
                baseline = values[i]
                break
    else:
        latest = samples[-1][1]
        for t, value in reversed(samples):
            if t <= cutoff:
                baseline = value
                break
    return max(0.0, (latest - baseline) / window)


#: Span name → allocation-protocol phase, the paper's latency decomposition
#: (submit → decision → phase I → phase II → grant).  ``module.*`` spans
#: (external-module growth, e.g. ``module.pvm``) map to ``phase2`` by prefix.
PHASE_OF_SPAN: Dict[str, str] = {
    "app.register": "submit",
    "broker.request": "decision",
    "rshprime": "phase1",
    "app.machine_wait": "grant",
    "broker.reclaim": "reclaim",
    "job.submit": "job",
}

#: Display order for phase summaries.
PHASE_ORDER: Tuple[str, ...] = (
    "submit",
    "decision",
    "phase1",
    "phase2",
    "grant",
    "reclaim",
    "job",
)


def phase_of_span(name: str) -> Optional[str]:
    """The allocation phase a span name belongs to, or None."""
    phase = PHASE_OF_SPAN.get(name)
    if phase is None and name.startswith("module."):
        return "phase2"
    return phase


class SpanPhaseFolder:
    """Folds finished spans into per-phase latency digests, online.

    Subscribes to a tracer's span-end observer hook and accumulates each
    finished span's duration into the :class:`HistogramDigest` of its
    allocation phase (see :data:`PHASE_OF_SPAN`).  This replaces post-hoc
    trace-tree walks for the live ``stats`` view: the distributions are
    ready the moment they are asked for, at O(bins) memory per phase, and
    spans left open by crashes simply never fold in.
    """

    def __init__(self, tracer: Any, **digest_kwargs: Any) -> None:
        self.digests: Dict[str, HistogramDigest] = {}
        self.spans_folded = 0
        self._digest_kwargs = digest_kwargs
        tracer.add_observer(self._on_span_end)

    def _on_span_end(self, span: Any) -> None:
        phase = phase_of_span(span.name)
        if phase is None:
            return
        digest = self.digests.get(phase)
        if digest is None:
            digest = self.digests[phase] = HistogramDigest(**self._digest_kwargs)
        digest.observe(span.duration)
        self.spans_folded += 1

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-phase digest summaries, in protocol order."""
        return {
            phase: self.digests[phase].summary()
            for phase in PHASE_ORDER
            if phase in self.digests
        }

    def __repr__(self) -> str:
        return f"<SpanPhaseFolder phases={sorted(self.digests)} folded={self.spans_folded}>"
