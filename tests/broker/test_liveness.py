"""Liveness detection: silent machines are declared dead and reclaimed.

The broker's heartbeat-deadline sweeper (``liveness_sweeper``) is the
detection half of the fault-tolerance story: a machine that stops
reporting for longer than ``calibration.liveness_deadline`` is marked
dead, its allocation is reclaimed through the ordinary revocation path,
and the adaptive job reacquires a replacement elsewhere.  A rebooted
machine rejoins once its daemon reports again.
"""

import pytest

from repro.os.signals import SIGKILL
from tests.broker.conftest import install_greedy


def _rbdaemons(cluster, host):
    return [
        p
        for p in cluster.machine(host).procs.values()
        if p.argv and p.argv[0] == "rbdaemon"
    ]


def test_crash_marks_machine_dead_and_job_reacquires(cluster4):
    svc = cluster4.broker
    install_greedy(cluster4)
    handle = svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)
    job = handle.job_record()
    held = svc.holdings()[job.jobid]
    assert len(held) == 2

    victim = held[0]
    cluster4.crash_machine(victim, reboot_after=None)
    cluster4.env.run(until=cluster4.now + 15.0)

    dead_events = svc.events_of("machine_dead")
    assert [e["host"] for e in dead_events] == [victim]
    assert svc.metrics.counter("broker.machines_marked_dead").value == 1
    assert svc.state.machines[victim].dead

    # The allocation was reclaimed (not leaked) and the greedy master
    # re-acquired a replacement on one of the surviving machines.
    held_after = svc.holdings()[job.jobid]
    assert victim not in held_after
    assert len(held_after) == 2
    cluster4.assert_no_crashes()


def test_rebooted_machine_rejoins_and_is_grantable(cluster4):
    svc = cluster4.broker
    install_greedy(cluster4)
    svc.submit("n00", ["greedy", "3"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)

    cluster4.crash_machine("n02", reboot_after=10.0)
    cluster4.env.run(until=cluster4.now + 9.0)
    assert svc.state.machines["n02"].dead

    cluster4.env.run(until=cluster4.now + 20.0)
    rejoins = svc.events_of("machine_rejoin")
    assert [e["host"] for e in rejoins] == ["n02"]
    assert svc.metrics.counter("broker.machine_rejoins").value == 1
    assert not svc.state.machines["n02"].dead

    # A greedy master wanting every remote machine pulls the rejoined host
    # back into service: the cluster has only three remote machines, so a
    # full complement must include n02 again.
    cluster4.env.run(until=cluster4.now + 10.0)
    held = [h for hosts in svc.holdings().values() for h in hosts]
    assert "n02" in held
    cluster4.assert_no_crashes()


def test_daemon_kill_is_not_a_false_positive(cluster4):
    """A killed daemon respawns within one report interval — well inside the
    liveness deadline — so the machine must never be declared dead."""
    svc = cluster4.broker
    daemons = _rbdaemons(cluster4, "n01")
    assert daemons
    daemons[0].signal(SIGKILL)
    cluster4.env.run(until=cluster4.now + 20.0)

    assert svc.events_of("machine_dead") == []
    assert svc.metrics.counter("broker.machines_marked_dead").value == 0
    assert svc.metrics.counter("broker.daemon_restarts").value >= 1
    assert not svc.state.machines["n01"].dead
    cluster4.assert_no_crashes()


def test_dead_machine_is_not_granted(cluster4):
    svc = cluster4.broker
    install_greedy(cluster4)
    cluster4.crash_machine("n03", reboot_after=None)
    cluster4.env.run(until=cluster4.now + 12.0)
    assert svc.state.machines["n03"].dead

    handle = svc.submit("n00", ["greedy", "3"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 15.0)
    job = handle.job_record()
    held = svc.holdings().get(job.jobid, [])
    assert "n03" not in held
    # Only two live remote machines exist; the third slot stays unfilled.
    assert sorted(held) == ["n01", "n02"]
    cluster4.assert_no_crashes()


def test_crash_racing_a_grant_neither_leaks_nor_double_grants(cluster4):
    """Satellite: the machine dies between ``_grant`` and the app's use of it.

    The broker records an ACTIVE allocation the moment it grants; if the
    machine crashes before the app's subapp ever connects, nothing will
    release the host on its own.  The liveness sweeper must reclaim it via
    the revoke → app "idle" release path, and the host must not be granted
    to anyone else while it is dead.
    """
    svc = cluster4.broker
    install_greedy(cluster4)
    env = cluster4.env
    handle = svc.submit("n00", ["greedy", "1"], rsl="+(adaptive)")
    crashed = {}

    def saboteur(proc):
        # Crash the granted host the instant the grant is logged — before
        # the app's rsh chain can reach the machine's rshd.
        while not svc.events_of("grant"):
            yield proc.sleep(0.001)
        host = svc.events_of("grant")[0]["host"]
        cluster4.machine(host).crash()
        crashed["host"] = host
        crashed["at"] = env.now

    env.process(saboteur(_FakeProc(env)), name="saboteur")
    env.run(until=env.now + 25.0)

    victim = crashed["host"]
    grant_t = svc.events_of("grant")[0]["time"]
    assert crashed["at"] == pytest.approx(grant_t, abs=0.01)

    # Detection fired and the allocation came back: no leak.
    assert victim in [e["host"] for e in svc.events_of("machine_dead")]
    assert svc.state.machines[victim].allocation is None

    # No double-grant: the dead host was granted exactly once, and the job
    # now holds a different, live machine.
    grants_to_victim = [
        e for e in svc.events_of("grant") if e["host"] == victim
    ]
    assert len(grants_to_victim) == 1
    job = handle.job_record()
    held = svc.holdings()[job.jobid]
    assert len(held) == 1 and victim not in held
    cluster4.assert_no_crashes()


class _FakeProc:
    """Minimal sleep-only stand-in so test helpers read like program bodies."""

    def __init__(self, env):
        self.env = env

    def sleep(self, seconds):
        return self.env.timeout(seconds)


def test_broker_death_cancels_the_armed_sweep_timer(cluster4):
    """The coalesced liveness sweep timer is cancelled — never fired into a
    dead continuation — when the broker goes down mid-wait."""
    svc = cluster4.broker
    cluster4.env.run(until=cluster4.now + 5.0)  # daemons reporting; sweep armed
    timer = svc.control.leases._sweep_timer
    assert timer is not None and not timer.cancelled
    svc.broker_proc.signal(SIGKILL)
    assert timer.cancelled  # the sweeper's finally ran on the way out
    cluster4.env.run(until=cluster4.now + 120.0)  # well past the deadline
    assert not timer.processed  # lazy deletion discarded it: no callbacks ran


def test_sweeper_holds_at_most_one_live_timer(cluster4):
    """Re-arming never accumulates wake-ups: every superseded sweep timer is
    either fired (and re-armed) or cancelled by the time a new one is armed."""
    svc = cluster4.broker
    seen = []
    deadline = cluster4.now + 60.0
    while cluster4.now < deadline:
        cluster4.env.step()
        timer = svc.control.leases._sweep_timer
        if timer is not None and (not seen or seen[-1] is not timer):
            seen.append(timer)
    assert len(seen) > 1  # the sweeper really did re-arm over this window
    current = svc.control.leases._sweep_timer
    for timer in seen:
        if timer is current:
            continue
        assert timer.processed or timer.cancelled
