"""Broker crash recovery: restart, re-registration, and session resumption.

The broker process dies (SIGKILL, no cleanup) and a fresh incarnation boots
with *blank* state.  Recovery is driven entirely by the peers: daemons
re-register with their lease inventories (re-adopting allocations), apps
resume their sessions by (jobid, epoch) (re-claiming holdings and
resubmitting unanswered requests), and the control tools fail fast while
the broker is down instead of silently dropping messages.
"""

import pytest

from repro.broker.service import BrokerLost, BrokerUnavailable
from repro.os.signals import SIGKILL
from tests.broker.conftest import install_greedy


def _all_held_hosts(svc):
    return [h for hosts in svc.holdings().values() for h in hosts]


def test_session_resumes_with_holdings_after_restart(cluster4):
    svc = cluster4.broker
    install_greedy(cluster4)
    handle = svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)
    job = handle.job_record()
    held_before = svc.holdings()[job.jobid]
    assert len(held_before) == 2

    svc.crash_broker()
    cluster4.env.run(until=cluster4.now + 2.0)
    svc.restart_broker()
    svc.wait_ready()
    cluster4.env.run(until=cluster4.now + 15.0)

    assert svc.epoch == 2
    # The job kept running and the new incarnation re-learned its holdings —
    # same machines, no re-execution, no double-grant.
    assert svc.holdings()[job.jobid] == held_before
    assert handle.proc.is_alive
    held = _all_held_hosts(svc)
    assert len(held) == len(set(held))
    assert svc.metrics.counter("sessions.resumed").value >= 1
    assert svc.metrics.counter("leases.adopted").value >= 1
    assert svc.metrics.counter("broker.daemon_reregistrations").value >= 4
    assert svc.events_of("session_resumed")
    cluster4.assert_no_crashes()


def test_restart_mid_request_resubmits_and_grants_once(cluster4):
    """The broker dies with the job's machine requests still queued: the
    resumed session resubmits them and each is granted exactly once."""
    svc = cluster4.broker
    install_greedy(cluster4)
    handle = svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)")
    # Crash almost immediately: registration done, grants likely not.
    cluster4.env.run(until=cluster4.now + 1.0)
    svc.crash_broker()
    cluster4.env.run(until=cluster4.now + 2.0)
    svc.restart_broker()
    svc.wait_ready()
    cluster4.env.run(until=cluster4.now + 25.0)

    job = handle.job_record()
    assert job is not None
    held = svc.holdings().get(job.jobid, [])
    assert len(held) == 2
    all_held = _all_held_hosts(svc)
    assert len(all_held) == len(set(all_held))
    cluster4.assert_no_crashes()


def test_adaptive_job_survives_two_broker_crashes(cluster4):
    svc = cluster4.broker
    install_greedy(cluster4)
    handle = svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)
    job = handle.job_record()

    for expected_epoch in (2, 3):
        svc.crash_broker()
        cluster4.env.run(until=cluster4.now + 2.0)
        svc.restart_broker()
        svc.wait_ready()
        cluster4.env.run(until=cluster4.now + 15.0)
        assert svc.epoch == expected_epoch
        assert len(svc.holdings()[job.jobid]) == 2
    assert handle.proc.is_alive
    cluster4.assert_no_crashes()


def test_new_submissions_after_restart_get_fresh_jobids(cluster4):
    """The restarted incarnation's jobid counter starts past every id the
    dead one could have issued: a resumed job and a new submission never
    collide."""
    svc = cluster4.broker
    install_greedy(cluster4)
    first = svc.submit("n00", ["greedy", "1"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)
    old_jobid = first.job_record().jobid

    svc.crash_broker()
    svc.restart_broker()
    svc.wait_ready()
    second = svc.submit("n00", ["greedy", "1"], rsl="+(adaptive)", uid="eve")
    cluster4.env.run(until=cluster4.now + 15.0)

    new_jobid = second.job_record().jobid
    assert new_jobid != old_jobid
    assert first.job_record().jobid == old_jobid  # resumed under its old id
    held = _all_held_hosts(svc)
    assert len(held) == len(set(held)) == 2
    cluster4.assert_no_crashes()


def test_halt_and_rbstat_fail_fast_while_broker_down(cluster4):
    svc = cluster4.broker
    svc.crash_broker()
    with pytest.raises(BrokerUnavailable):
        svc.halt_job(1)
    with pytest.raises(BrokerUnavailable):
        svc.run_rbstat()


def test_rbstat_run_by_hand_writes_error_file(cluster4):
    """A user invoking rbstat directly (no service harness guard) still
    fails fast, with a clear error in the report file."""
    svc = cluster4.broker
    svc.crash_broker()
    proc = cluster4.run_command(
        "n01",
        ["rbstat"],
        uid="bob",
        environ={"RB_BROKER_HOST": svc.broker_host},
    )
    cluster4.env.run(until=proc.terminated)
    assert proc.exit_code == 1
    report = cluster4.machine("n01").fs.read("/home/bob/.rbstat")
    assert report == "error: broker unreachable\n"


def test_wait_deadline_raises_broker_lost(cluster4):
    svc = cluster4.broker

    @cluster4.system_bin.register("longhaul")
    def longhaul(proc):
        yield proc.sleep(3600.0)

    handle = svc.submit("n00", ["longhaul"])
    cluster4.env.run(until=cluster4.now + 2.0)
    svc.crash_broker()
    with pytest.raises(BrokerLost):
        handle.wait(deadline=5.0)
    assert handle.status == "broker_lost"
    assert handle.proc.is_alive  # the job itself is fine, just unmanaged


def test_wait_deadline_on_slow_job_returns_none(cluster4):
    svc = cluster4.broker

    @cluster4.system_bin.register("longhaul")
    def longhaul(proc):
        yield proc.sleep(3600.0)

    handle = svc.submit("n00", ["longhaul"])
    assert handle.wait(deadline=5.0) is None  # merely slow, broker healthy
    assert handle.status == "running"


def test_wedged_grow_script_falls_back_to_deny(cluster4):
    """A module grow script that hangs is killed at the deadline, retried,
    and finally treated as a denial: the granted machine goes back to the
    broker instead of leaking in pending_add forever."""
    svc = cluster4.broker
    bin_ = cluster4.system_bin

    @bin_.register("stuckvm_coord")
    def stuckvm_coord(proc):
        yield proc.sleep(3600.0)

    @bin_.register("stuckvm_grow")
    def stuckvm_grow(proc):
        yield proc.sleep(100000.0)  # wedged forever

    @bin_.register("stuckvm_halt")
    def stuckvm_halt(proc):
        yield proc.sleep(0)
        return 0

    cal = cluster4.network.calibration
    svc.submit(
        "n00",
        ["stuckvm_coord"],
        rsl='+(count>=2)(module="stuckvm")',
        uid="dev",
    )
    budget = (
        10.0
        + (cal.module_script_retries + 1) * cal.module_script_deadline
        + 10.0
    )
    cluster4.env.run(until=cluster4.now + budget)

    timeouts = svc.metrics.counter("app.module_script_timeouts").value
    assert timeouts == cal.module_script_retries + 1
    # The grant was given back: nothing stays allocated to the wedged job.
    assert svc.holdings() == {}
    assert svc.events_of("released")
    cluster4.assert_no_crashes()


def test_wedged_grow_recovers_on_retry(cluster4):
    """The first attempt hangs, the retry completes: one timeout counted,
    and the machine is handled by the normal grow bookkeeping."""
    svc = cluster4.broker
    bin_ = cluster4.system_bin

    @bin_.register("flakyvm_coord")
    def flakyvm_coord(proc):
        yield proc.sleep(3600.0)

    @bin_.register("flakyvm_grow")
    def flakyvm_grow(proc):
        if proc.file_exists("~/.flakyvm_tried"):
            yield proc.sleep(0.1)
            return 0
        proc.write_file("~/.flakyvm_tried", "1\n")
        yield proc.sleep(100000.0)

    @bin_.register("flakyvm_halt")
    def flakyvm_halt(proc):
        yield proc.sleep(0)
        return 0

    cal = cluster4.network.calibration
    svc.submit(
        "n00",
        ["flakyvm_coord"],
        rsl='+(count>=2)(module="flakyvm")',
        uid="dev",
    )
    cluster4.env.run(
        until=cluster4.now + cal.module_script_deadline + 20.0
    )
    assert svc.metrics.counter("app.module_script_timeouts").value == 1
    cluster4.assert_no_crashes()


def test_blank_restart_of_a_bounded_broker_never_reissues_a_pruned_jobid():
    """A bounded broker prunes finished jobs from its table; the restarted
    incarnation's jobid counter starts past the dead one's, not past the
    table's highest surviving id."""
    from repro.cluster import Cluster, ClusterSpec

    cluster = Cluster(ClusterSpec.uniform(4, seed=1, bounded=True))
    svc = cluster.start_broker()
    svc.wait_ready()
    long = svc.submit("n00", ["rsh", "anylinux", "compute", "60"], uid="a")
    short = svc.submit("n00", ["rsh", "anylinux", "compute", "1"], uid="b")
    short.wait()
    cluster.env.run(until=cluster.now + 2.0)
    assert short.exit_code == 0
    assert long.job_record().jobid == 1
    assert sorted(svc.state.jobs) == [1]  # job 2 finished and was pruned

    svc.crash_broker()
    cluster.env.run(until=cluster.now + 2.0)
    svc.restart_broker()
    svc.wait_ready()
    cluster.env.run(until=cluster.now + 5.0)
    third = svc.submit("n00", ["rsh", "anylinux", "compute", "1"], uid="c")
    cluster.env.run(until=cluster.now + 1.0)
    assert third.job_record().jobid == 3
    assert third.wait() == 0
    cluster.assert_no_crashes()
