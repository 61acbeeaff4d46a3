"""Lease-based grants: TTLs, heartbeat renewal, and stale-lease expiry.

Every grant carries a lease (``Allocation.lease_expires_at``).  Daemon
heartbeats renew the lease of any allocation whose jobid has a live subapp
on the machine; the broker's ``lease_sweeper`` expires allocations whose
lease stopped being renewed, so a machine stranded by lost state (e.g. a
session that died with a previous broker incarnation) becomes grantable
again instead of leaking forever.
"""

import pytest

from repro.broker.records import AllocationState
from repro.os.signals import SIGKILL
from tests.broker.conftest import install_greedy


def test_every_grant_carries_a_finite_lease(cluster4):
    svc = cluster4.broker
    install_greedy(cluster4)
    handle = svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)
    job = handle.job_record()
    ttl = cluster4.network.calibration.lease_ttl
    held = svc.holdings()[job.jobid]
    assert len(held) == 2
    for host in held:
        allocation = svc.state.machines[host].allocation
        assert allocation.lease_expires_at != float("inf")
        # Granted within the last 5 s, so the lease expires within one TTL.
        assert cluster4.now < allocation.lease_expires_at <= cluster4.now + ttl
    cluster4.assert_no_crashes()


def test_heartbeats_renew_leases_past_the_ttl(cluster4):
    """A healthy job keeps its machines well past the original TTL: daemon
    reports list the subapp's jobid, which pushes the lease forward."""
    svc = cluster4.broker
    install_greedy(cluster4)
    handle = svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)
    job = handle.job_record()
    ttl = cluster4.network.calibration.lease_ttl

    cluster4.env.run(until=cluster4.now + 2.5 * ttl)
    # Nothing expired; the allocations are still there with fresh leases.
    assert svc.metrics.counter("leases.expired").value == 0
    held = svc.holdings()[job.jobid]
    assert len(held) == 2
    for host in held:
        allocation = svc.state.machines[host].allocation
        assert allocation.lease_expires_at > cluster4.now
    cluster4.assert_no_crashes()


def test_unrenewed_lease_expires_and_frees_the_machine(jcluster4, frees):
    """An allocation nobody renews (its job has no live session and no
    subapp on the host) is swept once its TTL runs out."""
    svc = jcluster4.broker
    ttl = jcluster4.network.calibration.lease_ttl
    # Plant an allocation for a job the broker has no session for — the
    # shape left behind when session state dies with a broker incarnation
    # and the app never resumes.
    svc.state.adopt_job(99, "ghost", "n00", "", ["ghost"])
    svc.state.allocate(
        "n02", 99, firm=False, now=jcluster4.now,
        lease_expires_at=jcluster4.now + 1.0,
    )
    jcluster4.env.run(until=jcluster4.now + 2.0 * ttl)

    assert svc.state.machines["n02"].allocation is None
    assert svc.metrics.counter("leases.expired").value == 1
    expiries = svc.events_of("lease_expired")
    assert [(e["host"], e["jobid"]) for e in expiries] == [("n02", 99)]
    (freed,) = frees
    assert (freed.host, freed.outcome) == ("n02", "lease_expired")
    freed.assert_clean(spanned=False)  # never revoked: no reclaim span
    jcluster4.assert_no_crashes()


def test_expired_lease_machine_is_grantable_again(cluster4):
    svc = cluster4.broker
    install_greedy(cluster4)
    ttl = cluster4.network.calibration.lease_ttl
    svc.state.adopt_job(99, "ghost", "n00", "", ["ghost"])
    for host in ("n01", "n02", "n03"):
        svc.state.allocate(
            host, 99, firm=False, now=cluster4.now,
            lease_expires_at=cluster4.now + 1.0,
        )
    # With every machine stranded, a new job can be served only after the
    # sweeper reclaims the expired leases.
    handle = svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 2.0 * ttl + 10.0)
    job = handle.job_record()
    assert len(svc.holdings()[job.jobid]) == 2
    assert svc.metrics.counter("leases.expired").value == 3
    cluster4.assert_no_crashes()


def test_attached_holder_is_reclaimed_not_dropped(cluster4):
    """When a *live* session's allocation stops being renewed (here: an
    allocation on a host where the job has no subapp, so daemon reports
    never list it), the broker revokes through the app rather than yanking
    the machine out from under it."""
    svc = cluster4.broker
    install_greedy(cluster4)
    handle = svc.submit("n00", ["greedy", "1"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)
    job = handle.job_record()
    (held,) = svc.holdings()[job.jobid]
    spare = next(h for h in ("n01", "n02", "n03") if h != held)
    # Plant an allocation to the live job on a host it runs nothing on:
    # no subapp there means no renewal, so the lease runs out.
    svc.state.allocate(
        spare, job.jobid, firm=False, now=cluster4.now,
        lease_expires_at=cluster4.now + 1.0,
    )
    ttl = cluster4.network.calibration.lease_ttl
    cluster4.env.run(until=cluster4.now + 2.0 * ttl + 5.0)

    assert svc.metrics.counter("leases.expired").value >= 1
    # The reclaim went through the revocation path: the app answered the
    # revoke with a release ("idle" path — nothing of the job runs there).
    assert any(e["host"] == spare for e in svc.events_of("revoke"))
    assert any(e["host"] == spare for e in svc.events_of("released"))
    assert svc.state.machines[spare].allocation is None
    # The job's real machine is untouched.
    assert svc.holdings()[job.jobid] == [held]
    cluster4.assert_no_crashes()


def test_broker_death_cancels_the_armed_lease_timer(cluster4):
    """The coalesced lease sweep timer follows the same cancellation
    discipline as the liveness sweep timer: never fired into a dead
    continuation."""
    svc = cluster4.broker
    cluster4.env.run(until=cluster4.now + 5.0)
    timer = svc.control.leases._lease_timer
    assert timer is not None and not timer.cancelled
    svc.broker_proc.signal(SIGKILL)
    assert timer.cancelled
    cluster4.env.run(until=cluster4.now + 120.0)
    assert not timer.processed


def test_renewal_is_driven_by_daemon_reports(cluster4):
    """The lease inventory really comes from the process table: a report
    listing the jobid moves ``lease_expires_at`` forward."""
    svc = cluster4.broker
    install_greedy(cluster4)
    handle = svc.submit("n00", ["greedy", "1"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)
    job = handle.job_record()
    (held,) = svc.holdings()[job.jobid]
    before = svc.state.machines[held].allocation.lease_expires_at
    interval = cluster4.network.calibration.daemon_report_interval
    cluster4.env.run(until=cluster4.now + 2.0 * interval + 0.5)
    after = svc.state.machines[held].allocation.lease_expires_at
    assert after > before
    assert svc.state.machines[held].allocation.state is AllocationState.ACTIVE
    cluster4.assert_no_crashes()
