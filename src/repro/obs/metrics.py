"""A metrics registry keyed on simulated time.

Counters, gauges and histograms in the Prometheus mould, except that every
sample is stamped with the *simulated* clock — the same axis the paper's
tables use — so a metric series can be replayed against a trace and exported
as counter tracks in the Chrome trace viewer.

All instruments are get-or-create through :class:`MetricsRegistry` (one per
simulated cluster, next to the tracer), so instrumentation sites never need
to coordinate declaration order.

The registry runs in one of three modes (``RB_METRICS_MODE`` or the ``mode``
argument), trading recall for memory:

* ``exact`` (default) — every sample and observation is kept forever, which
  preserves byte-identical determinism gates and full post-hoc replay; a
  series is two float columns (:class:`~repro.obs.timeseries.SampleColumns`)
  that read like a list of ``(time, value)`` tuples;
* ``bounded`` — sample series are interval-aggregated into ring buffers
  (:class:`~repro.obs.timeseries.SeriesBuffer`) and histograms fold into
  fixed-bin digests (:class:`~repro.obs.timeseries.HistogramDigest`), so
  registry memory is flat for any run length;
* ``off`` — only current values and running count/sum are maintained; no
  series at all (the obs-overhead benchmark's floor).

Aggregates (``value``, ``count``, ``total``, ``mean``) are identical in all
modes: they are maintained as running scalars, never recomputed from the
retained series.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .timeseries import HistogramDigest, SampleColumns, SeriesBuffer

#: One time-stamped sample: ``(simulated time, value)``.
Sample = Tuple[float, float]

#: Environment variable selecting the default registry mode.
METRICS_MODE_ENVIRON_KEY = "RB_METRICS_MODE"

#: The recognised registry modes.
METRICS_MODES = ("exact", "bounded", "off")


class _BoundedSeries:
    """Interval-aggregated ring buffer (see :class:`SeriesBuffer`)."""

    __slots__ = ("buffer",)

    def __init__(self, resolution: float, capacity: int) -> None:
        self.buffer = SeriesBuffer(resolution=resolution, capacity=capacity)

    def add(self, t: float, value: float) -> None:
        self.buffer.add(t, value)

    def samples(self) -> List[Sample]:
        return self.buffer.samples()

    def __len__(self) -> int:
        return len(self.buffer)


class _NullSeries:
    """No retained samples at all (``off`` mode)."""

    __slots__ = ()

    def add(self, t: float, value: float) -> None:
        pass

    def samples(self) -> List[Sample]:
        return []

    def __len__(self) -> int:
        return 0


class Counter:
    """A monotonically increasing count with a time-stamped sample series."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        env: Any,
        help: str = "",
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.name = name
        self.env = env
        self.help = help
        self.value = 0.0
        self._registry = registry
        self._series = registry._make_series() if registry else SampleColumns()
        self._record = self._series.add

    @property
    def samples(self) -> Sequence[Sample]:
        """The retained ``(time, value)`` series (mode-dependent recall)."""
        return self._series.samples()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) at the current simulated instant."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount
        self._record(self.env.now, self.value)
        if self._registry is not None:
            self._registry.updates += 1

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that can go up and down, sampled on every change."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        env: Any,
        help: str = "",
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.name = name
        self.env = env
        self.help = help
        self.value = 0.0
        self._registry = registry
        self._series = registry._make_series() if registry else SampleColumns()
        self._record = self._series.add

    @property
    def samples(self) -> Sequence[Sample]:
        """The retained ``(time, value)`` series (mode-dependent recall)."""
        return self._series.samples()

    def set(self, value: float) -> None:
        """Set the gauge at the current simulated instant."""
        self.value = float(value)
        self._record(self.env.now, self.value)
        if self._registry is not None:
            self._registry.updates += 1

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge upward."""
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the gauge downward."""
        self.set(self.value - amount)

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """A distribution of observations, each stamped with simulated time.

    Count and sum are running scalars (O(1) reads in every mode).  In
    ``exact`` mode the full observation list is kept and quantiles are
    nearest-rank exact; in ``bounded`` mode observations fold into a
    fixed-bin :class:`HistogramDigest` and quantiles are estimates; in
    ``off`` mode only count/sum/min/max survive.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        env: Any,
        help: str = "",
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.name = name
        self.env = env
        self.help = help
        self._registry = registry
        self._mode = registry.mode if registry else "exact"
        #: ``(time, value)`` of every observation (``exact`` mode; stays
        #: empty in the others).
        self.observations = SampleColumns()
        self.digest: Optional[HistogramDigest] = (
            HistogramDigest() if self._mode == "bounded" else None
        )
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation at the current simulated instant."""
        value = float(value)
        self._count += 1
        self._sum += value
        if self._mode == "exact":
            self.observations.add(self.env.now, value)
        elif self.digest is not None:
            self.digest.observe(value)
        if self._registry is not None:
            self._registry.updates += 1

    @property
    def count(self) -> int:
        """Number of observations (running, O(1))."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observed values (running, O(1))."""
        return self._sum

    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1); exact by nearest rank in ``exact``
        mode, digest-estimated in ``bounded`` mode, 0.0 in ``off`` mode."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self._mode == "exact":
            if not self.observations:
                return 0.0
            ordered = sorted(self.observations.values)
            rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
            return ordered[rank]
        if self.digest is not None:
            return self.digest.quantile(q)
        return 0.0

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean():.4f}>"


class MetricsRegistry:
    """Get-or-create home for every instrument of one simulation.

    ``mode`` selects the memory model (see the module docstring); when
    omitted it is read from ``RB_METRICS_MODE`` and defaults to ``exact``.
    ``series_resolution``/``series_capacity`` size the bounded-mode ring
    buffers.  The registry self-meters with plain integers (``updates``)
    rather than instruments, so observing observability costs nothing and
    cannot recurse.
    """

    def __init__(
        self,
        env: Any,
        mode: Optional[str] = None,
        series_resolution: float = 1.0,
        series_capacity: int = 512,
    ) -> None:
        if mode is None:
            mode = os.environ.get(METRICS_MODE_ENVIRON_KEY, "exact")
        if mode not in METRICS_MODES:
            raise ValueError(
                f"unknown metrics mode {mode!r} (expected one of {METRICS_MODES})"
            )
        self.env = env
        self.mode = mode
        self.series_resolution = series_resolution
        self.series_capacity = series_capacity
        self.updates = 0
        self._metrics: Dict[str, Any] = {}

    def _make_series(self):
        if self.mode == "exact":
            return SampleColumns()
        if self.mode == "bounded":
            return _BoundedSeries(self.series_resolution, self.series_capacity)
        return _NullSeries()

    def _get(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, self.env, help=help, registry=self)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        return self._get(Histogram, name, help)

    def all_metrics(self) -> List[Any]:
        """Every registered instrument, sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def series_points(self) -> int:
        """Total retained sample/observation points across all instruments.

        The bounded-memory acceptance check: in ``bounded`` mode this is
        capped by ``instruments * series_capacity`` no matter how long the
        run, while ``exact`` mode grows with every update.
        """
        points = 0
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                points += len(metric.observations)
            else:
                points += len(metric._series)
        return points

    def self_stats(self) -> Dict[str, Any]:
        """Obs self-metering: mode, instrument count, update count, memory."""
        return {
            "mode": self.mode,
            "instruments": len(self._metrics),
            "updates": self.updates,
            "series_points": self.series_points(),
        }

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A plain-dict summary of every instrument (for tools/tests)."""
        out: Dict[str, Dict[str, Any]] = {}
        for metric in self.all_metrics():
            if isinstance(metric, Histogram):
                out[metric.name] = {
                    "kind": metric.kind,
                    "count": metric.count,
                    "total": metric.total,
                    "mean": metric.mean(),
                    "p50": metric.percentile(0.5),
                    "p95": metric.percentile(0.95),
                }
            else:
                out[metric.name] = {"kind": metric.kind, "value": metric.value}
        return out

    def render(self) -> str:
        """Human-readable rendering (what ``rbtop`` writes)."""
        lines = [f"== metrics @ t={self.env.now:.3f}s =="]
        for name, info in self.snapshot().items():
            if info["kind"] == "histogram":
                lines.append(
                    f"{name}: n={info['count']} total={info['total']:.3f} "
                    f"mean={info['mean']:.3f} p50={info['p50']:.3f} "
                    f"p95={info['p95']:.3f}"
                )
            else:
                lines.append(f"{name}: {info['value']:g}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"<MetricsRegistry mode={self.mode} metrics={len(self._metrics)}>"
