"""Tests for the health watchdogs and SLO evaluation (``repro.obs.health``)."""

from repro.cluster import Cluster, ClusterSpec
from repro.obs import HealthMonitor, evaluate_slos


def _started(machines=4, seed=1):
    cluster = Cluster(ClusterSpec.uniform(machines, seed=seed))
    svc = cluster.start_broker()
    svc.wait_ready()
    return cluster, svc


# -- thresholds --------------------------------------------------------------


def test_thresholds_derive_from_calibration():
    cluster, svc = _started()
    cal = cluster.network.calibration
    monitor = HealthMonitor(svc)
    assert monitor.check_interval == 5.0
    assert monitor.heartbeat_gap == cal.liveness_deadline
    assert monitor.queue_high == max(4, len(svc.managed_hosts))


# -- watchdogs ---------------------------------------------------------------


def test_healthy_idle_run_flags_nothing():
    cluster, svc = _started()
    monitor = HealthMonitor(svc).start()
    assert monitor.start() is monitor  # idempotent
    cluster.env.run(until=60.0)
    report = monitor.report()
    assert report.checks >= 12  # one per 5s interval plus the final pass
    assert report.stuck_allocations == 0
    assert report.heartbeat_gap_events == 0
    assert report.queue_breaches == 0
    assert report.to_dict()["heartbeat_gap_events"] == 0
    assert "allocated at end: 0" in report.render()


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
    monitor = HealthMonitor(svc)
    monitor.queue_high = 0
    monitor.check_interval = 1.0
    monitor.start()
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
    svc.state.machines["n02"].last_seen = cluster.env.now - 50.0
    HealthMonitor(svc).check()
    events = svc.events_of("health_heartbeat_gap")
    assert len(events) == 1
    assert events[0]["host"] == "n02"


# -- SLO evaluation ----------------------------------------------------------


def test_evaluate_slos_passes_a_clean_run():
    _, svc = _started()
    slo = evaluate_slos(svc)
    assert slo.passed
    assert slo.to_dict()["passed"] is True
    assert "PASS" in slo.render()


def test_evaluate_slos_flags_slow_grants():
    _, svc = _started()
    svc.metrics.histogram("broker.grant_wait").observe(100.0)
    slow = evaluate_slos(svc, grant_wait_p95=30.0)
    assert not slow.passed
    verdicts = {o.name: o.ok for o in slow.objectives}
    assert verdicts["grant_wait_p95_seconds"] is False
    assert "FAIL" in slow.render()


# -- CLI ---------------------------------------------------------------------


def test_slo_command_runs_and_passes(capsys):
    from repro.__main__ import main

    assert main(["slo", "--machines", "4", "--minutes", "1"]) == 0
    out = capsys.readouterr().out
    assert "== SLO report: PASS ==" in out
    assert "grant_wait_p95_seconds" in out
    assert "invariants: held after every event" in out


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
