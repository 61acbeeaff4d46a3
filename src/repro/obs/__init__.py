"""``repro.obs`` — end-to-end allocation tracing and metrics.

The observability layer the evaluation rests on: every headline number in
the paper is a latency decomposition of the allocation protocol, and this
package makes those decompositions first-class instead of ad-hoc timer
arithmetic.  It provides:

* :mod:`repro.obs.spans` — a span tracer with context propagation through
  the simulated process tree (``RB_TRACE`` environ) and the wire protocol;
* :mod:`repro.obs.metrics` — counters/gauges/histograms keyed on simulated
  time;
* :mod:`repro.obs.export` — JSONL and Chrome ``trace_event`` exporters plus
  the multi-run :class:`~repro.obs.export.TraceCollector`;
* :mod:`repro.obs.queries` — span-tree queries (grant timelines, phase
  durations, connectivity checks);
* :mod:`repro.obs.timeseries` — bounded instruments (mergeable histogram
  digests, ring-capped series, windowed rates, online phase folding);
* :mod:`repro.obs.health` — simulated-time watchdogs and SLO reports.

Every :class:`~repro.cluster.network.Network` owns a tracer and a registry;
program bodies reach them through :func:`tracer_of` / :func:`metrics_of`.
Which pair a run gets is its cluster's choice alone: an exact registry and a
recording tracer by default, a ``bounded`` registry and a non-recording
tracer for a ``ClusterSpec.bounded`` run.
"""

from repro.obs.export import (
    TraceCollector,
    span_record,
    to_chrome,
    to_jsonl,
    write_trace,
)
from repro.obs.health import (
    HealthMonitor,
    HealthReport,
    SLOReport,
    evaluate_slos,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.queries import (
    format_trace,
    grant_times,
    is_connected,
    phase_durations,
    trace_root,
)
from repro.obs.spans import (
    TRACE_ENVIRON_KEY,
    Span,
    Tracer,
    context_from_environ,
    format_context,
    parse_context,
)
from repro.obs.timeseries import (
    HistogramDigest,
    SeriesBuffer,
    SpanPhaseFolder,
    phase_of_span,
    windowed_rate,
)

__all__ = [
    "TRACE_ENVIRON_KEY",
    "Counter",
    "Gauge",
    "HealthMonitor",
    "HealthReport",
    "Histogram",
    "HistogramDigest",
    "MetricsRegistry",
    "SLOReport",
    "SeriesBuffer",
    "Span",
    "SpanPhaseFolder",
    "TraceCollector",
    "Tracer",
    "context_from_environ",
    "evaluate_slos",
    "format_context",
    "format_trace",
    "grant_times",
    "is_connected",
    "metrics_of",
    "parse_context",
    "phase_durations",
    "phase_of_span",
    "span_record",
    "to_chrome",
    "to_jsonl",
    "trace_root",
    "tracer_of",
    "windowed_rate",
]


def tracer_of(proc) -> Tracer:
    """The tracer of the network ``proc``'s machine belongs to."""
    return proc.machine.network.tracer


def metrics_of(proc) -> MetricsRegistry:
    """The metrics registry of the network ``proc``'s machine belongs to."""
    return proc.machine.network.metrics
