"""Unit tests for the span tracer and the metrics registry."""

import pytest

from repro.obs import (
    TRACE_ENVIRON_KEY,
    MetricsRegistry,
    Tracer,
    context_from_environ,
    format_context,
    parse_context,
)
from repro.sim import Environment


# -- context propagation forms ------------------------------------------------


def test_context_roundtrips_through_environ_form():
    ctx = {"trace_id": 7, "span_id": 42}
    assert parse_context(format_context(ctx)) == ctx


@pytest.mark.parametrize("text", [None, "", "junk", "1:2:3", "a:b"])
def test_parse_context_rejects_garbage(text):
    assert parse_context(text) is None


def test_context_from_environ():
    assert context_from_environ({}) is None
    assert context_from_environ({TRACE_ENVIRON_KEY: "3:9"}) == {
        "trace_id": 3,
        "span_id": 9,
    }


# -- spans ------------------------------------------------------------------


def test_root_spans_get_fresh_trace_ids():
    tracer = Tracer(Environment())
    a = tracer.start("a")
    b = tracer.start("b")
    assert a.trace_id != b.trace_id
    assert a.parent_id is None and b.parent_id is None


def test_children_share_the_trace_whatever_the_parent_form():
    tracer = Tracer(Environment())
    root = tracer.start("root")
    by_span = tracer.start("c1", parent=root)
    by_ctx = tracer.start("c2", parent=root.context)
    by_str = tracer.start("c3", parent=format_context(root.context))
    for child in (by_span, by_ctx, by_str):
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
    assert tracer.children_of(root) == [by_span, by_ctx, by_str]


def test_span_times_follow_the_simulated_clock():
    env = Environment()
    tracer = Tracer(env)
    span = tracer.start("op")
    env.run(until=2.5)
    assert span.duration == pytest.approx(2.5)  # still open: clamps to now
    span.end(code=0)
    env.run(until=4.0)
    assert span.finished
    assert span.ended_at == pytest.approx(2.5)
    assert span.duration == pytest.approx(2.5)
    assert span.attrs["code"] == 0


def test_span_end_is_idempotent():
    env = Environment()
    tracer = Tracer(env)
    span = tracer.start("op")
    span.end()
    first_end = span.ended_at
    env.run(until=1.0)
    span.end(extra=1)
    assert span.ended_at == first_end
    assert span.attrs["extra"] == 1  # attrs still merge


def test_span_environ_fragment_points_back_at_the_span():
    tracer = Tracer(Environment())
    span = tracer.start("op")
    child = tracer.start("child", parent=span.environ()[TRACE_ENVIRON_KEY])
    assert child.parent_id == span.span_id


# -- metrics ----------------------------------------------------------------


def test_counter_accumulates_and_samples():
    env = Environment()
    registry = MetricsRegistry(env)
    grants = registry.counter("grants")
    grants.inc()
    env.run(until=1.0)
    grants.inc(2)
    assert grants.value == 3
    assert grants.samples == [(0.0, 1), (1.0, 3)]
    with pytest.raises(ValueError):
        grants.inc(-1)


def test_gauge_moves_both_ways():
    registry = MetricsRegistry(Environment())
    pending = registry.gauge("pending")
    pending.inc()
    pending.inc()
    pending.dec()
    assert pending.value == 1
    pending.set(5)
    assert pending.value == 5


def test_same_instant_writes_keep_one_point_carrying_the_last_value():
    env = Environment()
    registry = MetricsRegistry(env)
    grants, pending = registry.counter("grants"), registry.gauge("pending")
    for _ in range(3):
        grants.inc()
        pending.inc()
    pending.dec()
    env.run(until=1.0)
    grants.inc(2)
    pending.set(7)
    pending.set(4)
    assert (grants.value, pending.value) == (5, 4)
    assert grants.samples == [(0.0, 3), (1.0, 5)]
    assert pending.samples == [(0.0, 2), (1.0, 4)]
    assert registry.updates == 10 and registry.series_points() == 4


def test_histogram_keeps_every_same_instant_observation():
    registry = MetricsRegistry(Environment())
    wait = registry.histogram("wait")
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    for value in values:
        wait.observe(value)
    assert wait.observations == [(0.0, value) for value in values]
    ordered = sorted(values)
    assert wait.percentile(0.5) == ordered[round(0.5 * 7)]
    assert wait.percentile(0.95) == ordered[round(0.95 * 7)]


def test_histogram_statistics():
    registry = MetricsRegistry(Environment())
    wait = registry.histogram("wait")
    for value in [1.0, 2.0, 3.0, 4.0]:
        wait.observe(value)
    assert wait.count == 4
    assert wait.mean() == pytest.approx(2.5)
    assert wait.percentile(0.5) in (2.0, 3.0)
    assert wait.percentile(1.0) == 4.0
    with pytest.raises(ValueError):
        wait.percentile(2.0)


def test_registry_is_get_or_create_and_type_checked():
    registry = MetricsRegistry(Environment())
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")  # same name, different type
    names = [m.name for m in registry.all_metrics()]
    assert names == sorted(names)


def test_registry_render_mentions_every_metric():
    registry = MetricsRegistry(Environment())
    registry.counter("a.count").inc()
    registry.histogram("b.hist").observe(1.0)
    registry.gauge("c.gauge").set(2)
    text = registry.render()
    for name in ("a.count", "b.hist", "c.gauge"):
        assert name in text
