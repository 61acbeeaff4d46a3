"""Trace queries on damaged trees, and runs that record no trace.

A broker crash leaves spans open forever (crash-truncated traces); a
context that points at a span the tracer never recorded leaves orphans
(disconnected traces).  ``phase_durations`` and ``grant_times`` must stay
well-defined on both — post-mortems run on exactly these traces.

A bounded cluster records no span at all; that must never change simulated
behaviour.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.obs import (
    Tracer,
    format_trace,
    grant_times,
    is_connected,
    phase_durations,
    to_jsonl,
    trace_root,
)
from repro.sim import Environment


# -- crash-truncated traces --------------------------------------------------


def _truncated_trace(env, tracer):
    """A job trace cut off mid-flight: the reclaim span never ends."""
    root = tracer.start("job.submit", jobid=1)
    request = tracer.start("broker.request", parent=root, jobid=1)
    env.run(until=2.0)
    request.end(host="n01")
    reclaim = tracer.start("broker.reclaim", parent=root, host="n01")
    env.run(until=5.0)
    assert not reclaim.finished  # the crash point
    return root


def test_phase_durations_excludes_open_spans():
    env = Environment()
    tracer = Tracer(env)
    root = _truncated_trace(env, tracer)
    root.end()
    durations = phase_durations(tracer, root.trace_id)
    # The open reclaim contributes nothing; finished spans sum normally.
    assert "broker.reclaim" not in durations
    assert durations["broker.request"] == pytest.approx(2.0)
    assert durations["job.submit"] == pytest.approx(5.0)


def test_phase_durations_of_a_fully_open_trace_is_empty():
    # Everything in flight at the crash: nothing ever finished.
    env = Environment()
    tracer = Tracer(env)
    root = tracer.start("job.submit", jobid=2)
    tracer.start("broker.request", parent=root, jobid=2)
    env.run(until=4.0)
    assert phase_durations(tracer, root.trace_id) == {}


def test_grant_times_on_a_crash_truncated_trace():
    env = Environment()
    tracer = Tracer(env)
    root = tracer.start("job.submit", jobid=9)
    granted = tracer.start("broker.request", parent=root, jobid=9)
    env.run(until=3.0)
    granted.end(host="n02")
    # A request in flight at the crash, and a denial (no host): neither is
    # a grant, and neither may poison the timeline.
    tracer.start("broker.request", parent=root, jobid=9)
    tracer.start("broker.request", parent=root, jobid=9).end()
    assert grant_times(tracer, jobid=9) == [3.0]
    assert grant_times(tracer, jobid=9, since=3.5) == []


# -- disconnected traces -----------------------------------------------------


def test_orphan_spans_make_a_trace_disconnected():
    env = Environment()
    tracer = Tracer(env)
    root = tracer.start("job.submit", jobid=4)
    # A context that survived its parent (e.g. inherited through RB_TRACE
    # across a broker restart): the parent id was never recorded here.
    orphan_context = {"trace_id": root.trace_id, "span_id": 424242}
    orphan = tracer.start("broker.request", parent=orphan_context, jobid=4)
    env.run(until=1.5)
    orphan.end(host="n03")
    root.end()
    assert not is_connected(tracer, root.trace_id)
    # Queries still answer from what was recorded.
    assert grant_times(tracer, jobid=4) == [1.5]
    durations = phase_durations(tracer, root.trace_id)
    assert durations["broker.request"] == pytest.approx(1.5)
    # The tree renderers only walk from roots: the orphan is simply absent,
    # never a crash or an infinite walk.
    outline = format_trace(tracer, root.trace_id)
    assert "job.submit" in outline
    assert "broker.request" not in outline


def test_trace_root_of_a_rootless_trace_is_none():
    env = Environment()
    tracer = Tracer(env)
    anchor = tracer.start("job.submit")  # allocates trace_id 1
    orphan = tracer.start(
        "broker.request", parent={"trace_id": 99, "span_id": 7}
    )
    orphan.end()
    assert trace_root(tracer, orphan.trace_id) is None
    assert trace_root(tracer, anchor.trace_id) is anchor
    assert not is_connected(tracer, orphan.trace_id)


def test_connected_trace_stays_connected():
    env = Environment()
    tracer = Tracer(env)
    root = _truncated_trace(env, tracer)
    assert is_connected(tracer, root.trace_id)


# -- runs that record no trace ------------------------------------------------


def _traced_run(seed, bounded=False):
    """A small brokered workload; returns (cluster, JSONL trace export)."""
    cluster = Cluster(ClusterSpec.uniform(4, seed=seed, bounded=bounded))
    svc = cluster.start_broker()
    svc.wait_ready()
    svc.submit("n00", ["rsh", "anylinux", "compute", "2.0"], uid="seq")
    cluster.env.run(until=cluster.now + 8.0)
    svc.submit("n00", ["rsh", "anylinux", "compute", "1.0"], uid="seq")
    cluster.env.run(until=cluster.now + 5.0)
    return cluster, to_jsonl(cluster.network.tracer.spans, now=cluster.now)


def test_sampled_out_run_keeps_simulation_identical():
    full, _ = _traced_run(seed=5)
    dark, export = _traced_run(seed=5, bounded=True)
    # Zero spans kept, but every span id was still drawn...
    tracer = dark.network.tracer
    assert export == ""
    assert tracer.spans == []
    assert tracer.spans_started == full.network.tracer.spans_started > 0
    assert tracer.spans_sampled_out == tracer.spans_started
    # ...and the simulation itself did not notice: the same events in the
    # same order, and the same broker history.
    assert dark.env.heap_stats() == full.env.heap_stats()
    assert list(dark.broker.events) == full.broker.events
