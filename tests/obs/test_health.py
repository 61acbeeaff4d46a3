"""Tests for the health watchdogs and SLO evaluation (``repro.obs.health``)."""

import pytest

from repro.broker.records import AllocationState
from repro.cluster import Cluster, ClusterSpec
from repro.obs import (
    HealthMonitor,
    HealthReport,
    HealthThresholds,
    evaluate_slos,
)


def _started(machines=4, seed=1):
    cluster = Cluster(ClusterSpec.uniform(machines, seed=seed))
    svc = cluster.start_broker()
    svc.wait_ready()
    return cluster, svc


def _strand(svc, host, jobid, now, age):
    """Fabricate an allocation that has been RECLAIMING for ``age`` seconds."""
    allocation = svc.state.allocate(host, jobid=jobid, firm=False, now=now)
    allocation.state = AllocationState.RECLAIMING
    allocation.reclaiming_since = now - age
    return allocation


# -- thresholds --------------------------------------------------------------


def test_thresholds_derive_from_calibration():
    cluster, svc = _started()
    cal = cluster.network.calibration
    monitor = HealthMonitor(svc)
    assert monitor.stuck_after == cal.lease_ttl
    assert monitor.heartbeat_gap == cal.liveness_deadline
    assert monitor.queue_high == max(4, len(svc.managed_hosts))


def test_explicit_thresholds_win():
    _, svc = _started()
    monitor = HealthMonitor(
        svc,
        HealthThresholds(
            check_interval=2.0, stuck_after=1.0, heartbeat_gap=3.0, queue_high=7
        ),
    )
    assert monitor.check_interval == 2.0
    assert monitor.stuck_after == 1.0
    assert monitor.heartbeat_gap == 3.0
    assert monitor.queue_high == 7


# -- watchdogs ---------------------------------------------------------------


def test_healthy_idle_run_flags_nothing():
    cluster, svc = _started()
    monitor = HealthMonitor(svc).start()
    assert monitor.start() is monitor  # idempotent
    cluster.env.run(until=60.0)
    report = monitor.report()
    assert report.checks >= 12  # one per 5s interval plus the final pass
    assert report.healthy
    assert report.stuck_allocations == 0
    assert report.stuck_events == 0
    assert report.heartbeat_gap_events == 0
    assert report.queue_breaches == 0
    assert report.to_dict()["healthy"] is True
    assert "healthy" in report.render()


def test_stuck_allocation_detection_is_edge_triggered():
    cluster, svc = _started()
    cluster.env.run(until=30.0)
    now = cluster.env.now
    ttl = cluster.network.calibration.lease_ttl
    _strand(svc, "n01", jobid=99, now=now, age=2 * ttl)
    monitor = HealthMonitor(svc)
    monitor.check()
    assert monitor.stuck_events == 1
    assert svc.metrics.counter("health.stuck_allocations").value == 1
    monitor.check()
    assert monitor.stuck_events == 1  # still the same stuck host: one event
    # The host recovers, then gets stuck again: that is a fresh anomaly.
    svc.state.release("n01")
    monitor.check()
    _strand(svc, "n01", jobid=100, now=now, age=2 * ttl)
    monitor.check()
    assert monitor.stuck_events == 2
    report = monitor.report()
    assert report.stuck_allocations == 1
    assert report.allocated_hosts == ["n01"]
    assert not report.healthy
    assert "UNHEALTHY" in report.render()


def test_recent_reclaim_is_not_stuck():
    cluster, svc = _started()
    cluster.env.run(until=30.0)
    _strand(svc, "n01", jobid=7, now=cluster.env.now, age=0.5)
    monitor = HealthMonitor(svc)
    monitor.check()
    assert monitor.stuck_events == 0
    # Still allocated at report time, though — the drain check sees it.
    assert monitor.report().stuck_allocations == 1


def test_heartbeat_gap_detection():
    cluster, svc = _started()
    cluster.env.run(until=100.0)
    record = svc.state.machines["n01"]
    assert record.last_seen >= 0.0  # the daemon has been reporting
    record.last_seen = cluster.env.now - 50.0
    monitor = HealthMonitor(svc)
    monitor.check()
    assert monitor.gap_events == 1
    assert monitor.max_heartbeat_gap >= 50.0
    assert svc.metrics.counter("health.heartbeat_gaps").value == 1
    monitor.check()
    assert monitor.gap_events == 1  # edge-triggered, not once per pass
    report = monitor.report()
    assert report.heartbeat_gap_events == 1
    assert report.max_heartbeat_gap >= 50.0


def test_queue_watermark_on_an_overloaded_cluster():
    # Two machines, one usable worker: three long sequential jobs must queue.
    cluster, svc = _started(machines=2)
    monitor = HealthMonitor(
        svc, HealthThresholds(queue_high=0, check_interval=1.0)
    ).start()
    for i in range(3):
        svc.submit("n00", ["rsh", "anylinux", "compute", "40"], uid=f"s{i}")
    cluster.env.run(until=20.0)
    assert monitor.queue_high_watermark >= 1
    assert monitor.queue_breaches >= 1
    assert svc.metrics.counter("health.queue_breaches").value >= 1
    assert monitor.report().queue_high_watermark >= 1


def test_monitor_emits_health_events_into_the_broker_log():
    cluster, svc = _started()
    cluster.env.run(until=100.0)
    _strand(
        svc,
        "n02",
        jobid=5,
        now=cluster.env.now,
        age=3 * cluster.network.calibration.lease_ttl,
    )
    HealthMonitor(svc).check()
    events = svc.events_of("health_stuck_allocation")
    assert len(events) == 1
    assert events[0]["host"] == "n02"


# -- SLO evaluation ----------------------------------------------------------


def _report(**overrides):
    base = dict(time=0.0, checks=1, stuck_allocations=0)
    base.update(overrides)
    return HealthReport(**base)


def test_evaluate_slos_passes_a_clean_run():
    _, svc = _started()
    slo = evaluate_slos(svc, _report())
    assert slo.passed
    assert slo.to_dict()["passed"] is True
    assert "PASS" in slo.render()


def test_evaluate_slos_drained_flag_controls_leak_objective():
    _, svc = _started()
    leaked = _report(stuck_allocations=2, allocated_hosts=["n01", "n02"])
    # Mid-flight: machines held by a live job are not leaks.
    assert evaluate_slos(svc, leaked).passed
    # After a drain they are.
    drained = evaluate_slos(svc, leaked, drained=True)
    assert not drained.passed
    failing = [o.name for o in drained.objectives if not o.ok]
    assert failing == ["stuck_allocations"]


def test_evaluate_slos_flags_stuck_events_and_slow_grants():
    _, svc = _started()
    assert not evaluate_slos(svc, _report(stuck_events=1)).passed
    svc.metrics.histogram("broker.grant_wait").observe(100.0)
    slow = evaluate_slos(svc, _report(), grant_wait_p95=30.0)
    assert not slow.passed
    verdicts = {o.name: o.ok for o in slow.objectives}
    assert verdicts["grant_wait_p95_seconds"] is False
    assert "FAIL" in slow.render()


def test_evaluate_slos_optional_heartbeat_gap_objective():
    _, svc = _started()
    report = _report(max_heartbeat_gap=9.0)
    assert evaluate_slos(svc, report).passed  # not requested: not evaluated
    gated = evaluate_slos(svc, report, max_heartbeat_gap=5.0)
    assert not gated.passed
    assert [o.name for o in gated.objectives if not o.ok] == [
        "max_heartbeat_gap_seconds"
    ]


# -- CLI ---------------------------------------------------------------------


def test_slo_command_runs_and_passes(capsys):
    from repro.__main__ import main

    assert main(["slo", "--machines", "4", "--minutes", "1"]) == 0
    out = capsys.readouterr().out
    assert "== SLO report: PASS ==" in out
    assert "grant_wait_p95_seconds" in out


# -- journal flush-lag watchdog ----------------------------------------------


def _journaled(machines=4, seed=1):
    cluster = Cluster(ClusterSpec.uniform(machines, seed=seed))
    svc = cluster.start_broker(journal=True)
    svc.wait_ready()
    return cluster, svc


def test_journal_lag_threshold_derives_from_calibration():
    cluster, svc = _journaled()
    cal = cluster.network.calibration
    monitor = HealthMonitor(svc)
    assert monitor.journal_lag == 4.0 * cal.journal_flush_interval
    explicit = HealthMonitor(svc, HealthThresholds(journal_lag=9.0))
    assert explicit.journal_lag == 9.0


def test_stalled_disk_trips_the_journal_lag_watchdog():
    cluster, svc = _journaled()
    cluster.env.run(until=10.0)
    monitor = HealthMonitor(svc)
    monitor.check()
    assert monitor.journal_lag_events == 0

    svc.journal.stall(60.0)
    svc.journal.note_lease("n01", 99.0)  # something now waits for the disk
    cluster.env.run(until=cluster.now + 10.0)
    monitor.check()
    assert monitor.journal_lag_events == 1
    assert monitor.max_journal_lag >= 10.0
    assert svc.metrics.counter("health.journal_lag").value == 1
    events = svc.events_of("health_journal_lag")
    assert events and events[-1]["pending_ops"] >= 1
    # Edge-triggered: the same ongoing stall is one anomaly, not one per
    # check.
    monitor.check()
    assert monitor.journal_lag_events == 1

    report = monitor.report()
    assert report.journal_lag_events == 1
    assert report.max_journal_lag >= 10.0
    assert "journal lag: 1 events" in report.render()
    assert report.to_dict()["journal_lag_events"] == 1


def test_journal_lag_watchdog_is_silent_without_a_journal():
    cluster, svc = _started()
    monitor = HealthMonitor(svc).start()
    cluster.env.run(until=30.0)
    report = monitor.report()
    assert report.journal_lag_events == 0
    assert "journal lag" not in report.render()
