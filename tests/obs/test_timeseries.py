"""Unit tests for the bounded telemetry primitives and registry modes."""

import gc
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster
from repro.experiments import run_cell
from repro.obs import (
    HistogramDigest,
    MetricsRegistry,
    SeriesBuffer,
    SpanPhaseFolder,
    Tracer,
    phase_of_span,
    windowed_rate,
)
from repro.obs.export import _US, to_chrome
from repro.obs.timeseries import SampleColumns
from repro.sim import Environment


# -- histogram digests -------------------------------------------------------


def test_digest_aggregates_are_exact():
    digest = HistogramDigest()
    for value in [0.5, 1.5, 2.5, 10.0]:
        digest.observe(value)
    assert digest.count == 4
    assert digest.total == pytest.approx(14.5)
    assert digest.mean() == pytest.approx(14.5 / 4)
    assert digest.min == 0.5
    assert digest.max == 10.0


def test_digest_quantiles_estimate_within_bin_resolution():
    digest = HistogramDigest()
    values = [float(i) for i in range(1, 101)]
    for value in values:
        digest.observe(value)
    # Log-spaced bins: the estimate lands in the right bin, so it is within
    # one bin width (a factor of 10**(1/8) ~ 1.33) of the exact quantile.
    assert digest.quantile(0.5) == pytest.approx(50.0, rel=0.35)
    assert digest.quantile(0.95) == pytest.approx(95.0, rel=0.35)
    # The extremes clamp to the observed min/max (never outside them).
    assert 1.0 <= digest.quantile(0.0) <= 1.0 * 10 ** 0.125
    assert 100.0 / 10 ** 0.125 <= digest.quantile(1.0) <= 100.0


def test_digest_underflow_overflow_and_empty():
    digest = HistogramDigest(lo=1e-3, hi=1e3)
    assert digest.quantile(0.5) == 0.0  # empty
    digest.observe(0.0)  # below lo (and non-positive): underflow bin
    digest.observe(1e9)  # above hi: overflow bin
    assert digest.count == 2
    assert digest.quantile(0.0) == 0.0
    assert digest.quantile(1.0) == 1e9
    with pytest.raises(ValueError):
        digest.quantile(1.5)


def test_digest_merge_matches_single_digest():
    whole = HistogramDigest()
    left, right = HistogramDigest(), HistogramDigest()
    for i in range(1, 41):
        value = i / 4.0
        whole.observe(value)
        (left if i % 2 else right).observe(value)
    left.merge(right)
    assert left.count == whole.count
    assert left.total == pytest.approx(whole.total)
    assert left.min == whole.min and left.max == whole.max
    assert left._bins == whole._bins
    assert left.quantile(0.5) == whole.quantile(0.5)


def test_digest_merge_rejects_mismatched_bounds():
    with pytest.raises(ValueError):
        HistogramDigest().merge(HistogramDigest(lo=1e-3))


def test_digest_rejects_bad_bounds():
    with pytest.raises(ValueError):
        HistogramDigest(lo=2.0, hi=1.0)
    with pytest.raises(ValueError):
        HistogramDigest(bins_per_decade=0)


# -- series buffers ----------------------------------------------------------


def test_series_buffer_keeps_last_write_per_interval():
    series = SeriesBuffer(resolution=1.0, capacity=16)
    series.add(0.1, 1.0)
    series.add(0.9, 2.0)  # same interval: replaces
    series.add(1.5, 3.0)
    assert series.samples() == [(0.9, 2.0), (1.5, 3.0)]
    assert series.last() == (1.5, 3.0)
    assert len(series) == 2
    assert series.dropped == 0


def test_series_buffer_ring_caps_memory():
    series = SeriesBuffer(resolution=1.0, capacity=4)
    for i in range(10):
        series.add(float(i), float(i))
    assert len(series) == 4
    assert series.dropped == 6
    assert series.samples() == [(6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]


def test_series_buffer_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SeriesBuffer(resolution=0.0)
    with pytest.raises(ValueError):
        SeriesBuffer(capacity=0)
    assert SeriesBuffer().last() is None


# -- windowed rates ----------------------------------------------------------


def test_windowed_rate_uses_last_sample_before_the_window():
    samples = [(0.0, 0.0), (10.0, 5.0), (50.0, 20.0)]
    assert windowed_rate(samples, now=60.0, window=20.0) == pytest.approx(
        (20.0 - 5.0) / 20.0
    )
    # Series starts inside the window: baseline is the counter's origin.
    assert windowed_rate(samples, now=60.0, window=120.0) == pytest.approx(
        20.0 / 120.0
    )
    assert windowed_rate([], now=60.0) == 0.0
    with pytest.raises(ValueError):
        windowed_rate(samples, now=60.0, window=0.0)


# -- span phases -------------------------------------------------------------


def test_phase_of_span_vocabulary():
    assert phase_of_span("app.register") == "submit"
    assert phase_of_span("broker.request") == "decision"
    assert phase_of_span("rshprime") == "phase1"
    assert phase_of_span("module.pvm_grow") == "phase2"
    assert phase_of_span("app.machine_wait") == "grant"
    assert phase_of_span("calypso.worker") is None


def test_span_phase_folder_folds_online():
    env = Environment()
    tracer = Tracer(env)
    folder = SpanPhaseFolder(tracer)
    span = tracer.start("broker.request")
    env.run(until=2.0)
    span.end()
    tracer.start("calypso.worker").end()  # no phase: ignored
    open_span = tracer.start("broker.request")  # never ends: never folds
    assert folder.spans_folded == 1
    summary = folder.summary()
    assert list(summary) == ["decision"]
    assert summary["decision"]["count"] == 1
    assert summary["decision"]["mean"] == pytest.approx(2.0)
    assert not open_span.finished


def test_span_phase_folder_never_sees_unsampled_spans():
    env = Environment()
    tracer = Tracer(env, record=False)
    folder = SpanPhaseFolder(tracer)
    tracer.start("broker.request").end()
    assert folder.spans_folded == 0


def test_sampled_out_tracer_remembers_no_trace_ids():
    """A non-recording tracer (a bounded cluster's) keeps no span and no
    per-trace index, so it is bounded however long the service runs.  Ids
    advance exactly as they do when everything is kept."""
    dropped, kept = Tracer(Environment(), record=False), Tracer(Environment())
    for tracer in (dropped, kept):
        for _ in range(10_000):
            root = tracer.start("submit")
            tracer.start("grant", parent=root).end()
            root.end()
    assert dropped.spans == [] and dropped.spans_sampled_out == 20_000
    assert dropped._by_id == {} and dropped._by_trace == {}
    assert len(kept.spans) == 20_000
    for tracer in (dropped, kept):
        last = tracer.start("submit")
        assert (last.trace_id, last.span_id) == (10_001, 20_001)
    child = dropped.start("late", parent={"trace_id": 7, "span_id": 13})
    assert not child.sampled


# -- registry modes ----------------------------------------------------------


def test_bounded_registry_aggregates_series_and_digests():
    env = Environment()
    registry = MetricsRegistry(
        env, mode="bounded", series_resolution=1.0, series_capacity=8
    )
    grants = registry.counter("grants")
    for _ in range(5):
        grants.inc()
    # All five updates landed in one interval: one retained point, last wins.
    assert grants.value == 5
    assert grants.samples == [(0.0, 5.0)]
    wait = registry.histogram("wait")
    for value in [1.0, 2.0, 3.0, 4.0]:
        wait.observe(value)
    assert wait.count == 4
    assert wait.total == pytest.approx(10.0)
    assert wait.digest is not None
    assert wait.percentile(1.0) == pytest.approx(4.0, rel=0.35)
    assert wait.observations == []  # no unbounded retention


def test_bounded_registry_memory_is_flat():
    env = Environment()
    registry = MetricsRegistry(env, mode="bounded", series_capacity=16)
    gauge = registry.gauge("depth")
    for i in range(1000):
        env.run(until=float(i + 1))
        gauge.set(i)
    assert registry.series_points() <= 16
    assert registry.self_stats()["updates"] == 1000


def test_bounded_registry_stays_flat_where_exact_keeps_every_point():
    """10k churning writes to each kind of instrument: a bounded registry
    keeps at most instruments x capacity points and its histogram keeps its
    running aggregates, while an exact one keeps one point per write."""
    env = Environment()
    bounded = MetricsRegistry(env, mode="bounded", series_capacity=128)
    exact = MetricsRegistry(env, mode="exact")
    for i in range(10_000):
        env.run(until=float(i))
        for registry in (bounded, exact):
            registry.counter("churn.submits").inc()
            registry.gauge("churn.queue").set(i % 7)
            registry.histogram("churn.wait").observe(0.001 + (i % 100) / 10.0)
    assert bounded.series_points() <= len(bounded.all_metrics()) * 128
    assert exact.series_points() == 3 * 10_000
    wait = bounded.histogram("churn.wait")
    assert wait.count == 10_000 and wait.percentile(0.95) > 0.0


def test_exact_mode_snapshot_unchanged_by_mode_machinery():
    # The exact-mode registry is the determinism-gated default: samples are
    # plain (time, value) lists and percentiles are nearest-rank exact.
    env = Environment()
    registry = MetricsRegistry(env)
    counter = registry.counter("grants")
    counter.inc()
    env.run(until=1.0)
    counter.inc(2)
    assert counter.samples == [(0.0, 1), (1.0, 3)]
    assert registry.self_stats()["mode"] == "exact"
    assert registry.series_points() == 2
    with pytest.raises(ValueError):
        MetricsRegistry(env, mode="off")


# -- columnar exact-mode samples ---------------------------------------------

#: Values whose every bit matters: not representable exactly, denormal,
#: huge, negative zero.
_AWKWARD = [0.1 + 0.2, 5e-324, 1.7976931348623157e308, -0.0, 1 / 3, 2.0**53 + 2]


def _record_awkward_series(registry, env):
    """Drive one instrument of each kind; returns what a list of tuples
    would have held for each."""
    counter = registry.counter("c")
    gauge = registry.gauge("g")
    hist = registry.histogram("h")
    expect = {"c": [], "g": [], "h": []}
    total = 0.0
    for step, value in enumerate(_AWKWARD):
        env.run(until=env.now + 0.1 * (step + 1))
        gauge.set(value)
        expect["g"].append((env.now, float(value)))
        hist.observe(value)
        expect["h"].append((env.now, float(value)))
        counter.inc(abs(value) if value < 1e300 else 1.0)
        total += abs(value) if value < 1e300 else 1.0
        expect["c"].append((env.now, total))
    return counter, gauge, hist, expect


def _bits(pairs):
    return [(float(t).hex(), float(v).hex()) for t, v in pairs]


def test_columnar_samples_round_trip_every_bit():
    env = Environment()
    registry = MetricsRegistry(env)
    counter, gauge, hist, expect = _record_awkward_series(registry, env)
    assert _bits(counter.samples) == _bits(expect["c"])
    assert _bits(gauge.samples) == _bits(expect["g"])
    assert _bits(hist.observations) == _bits(expect["h"])
    # Integers handed to inc/set/observe read back equal to themselves.
    registry.counter("n").inc(3)
    registry.gauge("m").set(7)
    registry.histogram("k").observe(2)
    assert registry.counter("n").samples == [(env.now, 3)]
    assert registry.gauge("m").samples[-1] == (env.now, 7)
    assert registry.histogram("k").observations == [(env.now, 2)]


def test_columnar_samples_read_like_a_list_of_tuples():
    env = Environment()
    registry = MetricsRegistry(env)
    _, gauge, hist, expect = _record_awkward_series(registry, env)
    samples, reference = gauge.samples, expect["g"]
    assert len(samples) == len(reference) == len(_AWKWARD)
    assert samples[0] == reference[0] and samples[-1] == reference[-1]
    assert isinstance(samples[-1], tuple)
    assert list(samples) == reference
    assert list(reversed(samples)) == reference[::-1]
    assert samples[1:4] == reference[1:4]
    assert samples[::-2] == reference[::-2]
    assert samples == reference and reference == samples
    assert samples == tuple(reference)
    assert samples != reference[:-1] and samples != reference[::-1]
    assert samples == hist.observations  # same instants, same values
    assert samples != registry.counter("c").samples
    assert samples != "not a series"
    assert repr(samples) == repr(reference)
    with pytest.raises(IndexError):
        samples[len(reference)]
    empty = registry.counter("untouched").samples
    assert not empty and empty == [] and list(empty) == []
    assert windowed_rate(empty, now=env.now) == 0.0


def test_registry_views_of_a_recorded_series_are_what_the_tuples_gave():
    env = Environment()
    registry = MetricsRegistry(env)
    counter = registry.counter("grants")
    wait = registry.histogram("wait")
    reference = []
    waits = []
    for i in range(200):
        env.run(until=env.now + 0.7)
        counter.inc(1 + i % 3)
        reference.append((env.now, counter.value))
        wait.observe((i * 37) % 11 + 0.5)
        waits.append((i * 37) % 11 + 0.5)
    assert registry.series_points() == 400
    assert registry.self_stats() == {
        "mode": "exact",
        "instruments": 2,
        "updates": 400,
        "series_points": 400,
    }
    ordered = sorted(waits)
    assert registry.snapshot() == {
        "grants": {"kind": "counter", "value": counter.value},
        "wait": {
            "kind": "histogram",
            "count": 200,
            "total": sum(waits),
            "mean": sum(waits) / 200,
            "p50": ordered[round(0.5 * 199)],
            "p95": ordered[round(0.95 * 199)],
        },
    }
    for window in (1.0, 20.0, 60.0, 139.9, 140.0, 1000.0):
        assert windowed_rate(
            counter.samples, now=env.now, window=window
        ) == windowed_rate(reference, now=env.now, window=window)
    # A sample at exactly now - window is the baseline on both readings.
    assert windowed_rate(counter.samples, now=env.now, window=0.7) == (
        windowed_rate(reference, now=env.now, window=0.7)
    )


def test_a_sample_costs_two_doubles_and_nothing_the_collector_walks():
    clock = SimpleNamespace(now=0.0)  # a bare clock: each write a new instant
    counter = MetricsRegistry(clock).counter("ticks")
    counter.inc()  # the columns exist before measuring
    n = 20_000
    gc.collect()
    gc.disable()  # an allocation-triggered pass would untrack float tuples
    tracemalloc.start()
    try:
        tracked = len(gc.get_objects())
        before, _ = tracemalloc.get_traced_memory()
        for i in range(n):
            clock.now = i + 1.0
            counter.inc()
        after, _ = tracemalloc.get_traced_memory()
        tracked = len(gc.get_objects()) - tracked
    finally:
        tracemalloc.stop()
        gc.enable()
    samples = counter.samples
    assert len(samples) == n + 1
    assert isinstance(samples, SampleColumns)
    # 16 bytes of payload; the rest is the arrays' growth headroom.
    assert (after - before) / n < 20
    assert tracked < 10


# -- one point per instant ---------------------------------------------------


def _value_at(series, t):
    """What a series says at ``t``: its last point at or before ``t``."""
    value = 0.0
    for when, v in series:
        if when <= t:
            value = v
    return value


def _track(events, name):
    """The Chrome counter track of ``name`` as the viewer draws it: the
    last value at each timestamp."""
    return {
        e["ts"]: e["args"]["value"]
        for e in events
        if e["ph"] == "C" and e["name"] == name
    }


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 0.0, 0.25, 1.0, 7.5]),
            st.booleans(),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=60,
    )
)
def test_per_instant_series_read_like_every_write(stream):
    """Against a reference that keeps every write: the same value at every
    instant, the same windowed rate for every window, the same exported
    counter track."""
    env = Environment()
    registry = MetricsRegistry(env)
    instruments = {"c": registry.counter("c"), "g": registry.gauge("g")}
    writes = {"c": [], "g": []}
    for dt, to_counter, x in stream:
        if dt:
            env.run(until=env.now + dt)
        if to_counter:
            instruments["c"].inc(x)
            writes["c"].append((env.now, instruments["c"].value))
        else:
            instruments["g"].set(x - 2)
            writes["g"].append((env.now, instruments["g"].value))
    events = to_chrome([], metrics=registry)["traceEvents"]
    now = env.now
    for name, reference in writes.items():
        series = instruments[name].samples
        times = [t for t, _ in series]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert len(series) == len({t for t, _ in reference})
        instants = sorted({t for t, _ in reference} | {0.0, now + 1.0})
        probes = instants + [(a + b) / 2 for a, b in zip(instants, instants[1:])]
        for t in probes:
            assert _value_at(series, t) == _value_at(reference, t)
        assert _track(events, name) == {t * _US: v for t, v in reference}
    counter, reference = instruments["c"].samples, writes["c"]
    windows = {0.1, 0.25, 100.0} | {now - t for t, _ in reference if t < now}
    for window in sorted(windows):
        for w in (window, window + 0.125):
            assert windowed_rate(counter, now, w) == windowed_rate(reference, now, w)


def test_a_churn_cell_keeps_one_point_per_instrument_per_instant(monkeypatch):
    clusters = []

    class Recorded(repro.cluster.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    written = {}
    plain_add = SampleColumns.add

    def add(series, t, value):
        written.setdefault(id(series), set()).add(t)
        plain_add(series, t, value)

    monkeypatch.setattr(repro.cluster, "Cluster", Recorded)
    monkeypatch.setattr(SampleColumns, "add", add)
    cell = run_cell("churn", 64, seed=3, sim_minutes=1.0)
    (cluster,) = clusters
    registry = cluster.network.metrics
    observations = distinct = 0
    for metric in registry.all_metrics():
        if metric.kind == "histogram":
            observations += len(metric.observations)
            continue
        times = list(metric.samples.times)
        assert all(a < b for a, b in zip(times, times[1:])), metric.name
        assert len(times) == len(written.get(id(metric.samples), ())), metric.name
        distinct += len(times)
    assert registry.series_points() == distinct + observations
    assert registry.series_points() < registry.updates
    assert cell["result"]["obs"] == registry.self_stats()
