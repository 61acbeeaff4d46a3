"""Every path that frees a machine goes through ``_BrokerControl.free``.

Each test drives one release path, on a journalled broker, and checks
what ``free`` left behind (the ``frees`` fixture): exactly one ``release``
journal op, no reclaim span left open for the host, no pending request
still reserved on it, and the reclaim span, where there was one, ended
with the path's outcome.  Paths other broker tests already drive carry
the same assertions there: app release after a revoke
(``test_preemption.py``), lease expiry of an unattached holder
(``test_leases.py``), a stale allocation dropped on resume
(``test_journal_recovery.py``) and a loan returned after a recall
(``test_federation.py``).
"""

from repro.broker.records import AllocationState
from repro.cluster import Cluster, ClusterSpec, MachineSpec
from repro.os.signals import SIGKILL
from tests.broker.conftest import install_greedy, recalled


def _until(cluster, condition, limit=60.0):
    """Advance the clock a millisecond at a time until ``condition()``."""
    deadline = cluster.now + limit
    while not condition():
        assert cluster.now < deadline, "condition never held"
        cluster.env.run(until=cluster.now + 0.001)


def _freed(frees, host, outcome):
    (freed,) = [f for f in frees if f.host == host and f.outcome == outcome]
    return freed


def _ghost_allocation(svc, host, jobid=99, lease=1000.0):
    """Plant an allocation for a job the broker has no session for."""
    svc.state.adopt_job(jobid, "ghost", "n00", "", ["ghost"])
    now = svc.cluster.now
    svc.state.allocate(
        host, jobid, firm=False, now=now, lease_expires_at=now + lease
    )


def test_job_done_with_a_claimed_reclaim_in_flight(jcluster4, frees):
    """The victim's app dies right after its revoke went out; its orphaned
    session times out and the job's holdings are freed with the reclaim
    still in flight.  The claiming request is un-reserved and granted."""
    svc = jcluster4.broker
    install_greedy(jcluster4)
    greedy = svc.submit("n00", ["greedy", "4"], rsl="+(adaptive)")
    jcluster4.env.run(until=jcluster4.now + 6.0)
    victim = greedy.job_record().jobid
    seq = svc.submit("n00", ["rsh", "anylinux", "null"])
    _until(jcluster4, lambda: svc.events_of("revoke"))
    greedy.proc.signal(SIGKILL)
    assert seq.wait(deadline=60.0) == 0

    (revoke,) = svc.events_of("revoke")
    freed = _freed(frees, revoke["host"], "job_done")
    freed.assert_clean("job_done")
    assert freed.span.attrs["victim"] == victim
    assert victim not in [e["jobid"] for e in svc.events_of("released")]
    assert svc.events_of("grant")[-1]["jobid"] == seq.job_record().jobid
    jcluster4.assert_no_crashes()


def test_reclaim_of_a_vanished_victim_expires(jcluster4, frees):
    """A firm request preempts a holder with no session: the revoke goes
    nowhere, the RECLAIMING lease runs out, and expiry frees the machine
    for the claiming request."""
    svc = jcluster4.broker
    for host in ("n01", "n02", "n03"):
        _ghost_allocation(svc, host, lease=3.0)
    seq = svc.submit("n00", ["rsh", "anylinux", "null"])
    assert seq.wait(deadline=60.0) == 0

    (revoke,) = svc.events_of("revoke")
    freed = _freed(frees, revoke["host"], "lease_expired")
    freed.assert_clean("lease_expired")
    grants = svc.events_of("grant")
    assert [g["host"] for g in grants] == [revoke["host"]]
    jcluster4.assert_no_crashes()


def test_recovery_conflict_frees_a_journalled_allocation(jcluster4, frees):
    """The journal recovers an allocation the machine's own inventory does
    not list: the re-registering daemon wins and the allocation is
    dropped."""
    svc = jcluster4.broker
    install_greedy(jcluster4)
    handle = svc.submit("n00", ["greedy", "1"], rsl="+(adaptive)")
    jcluster4.env.run(until=jcluster4.now + 5.0)
    job = handle.job_record()
    (held,) = svc.holdings()[job.jobid]
    spare = next(h for h in ("n01", "n02", "n03") if h != held)
    now = jcluster4.now
    svc.state.allocate(  # journalled, but nothing of the job runs there
        spare, job.jobid, firm=False, now=now, lease_expires_at=now + 12.0
    )
    svc.crash_broker()
    jcluster4.env.run(until=jcluster4.now + 2.0)
    svc.restart_broker()
    svc.wait_ready()
    jcluster4.env.run(until=jcluster4.now + 2.0)

    conflicts = svc.events_of("recovery_conflict")
    assert [(e["host"], e["jobid"]) for e in conflicts] == [(spare, job.jobid)]
    _freed(frees, spare, "recovery_conflict").assert_clean(spanned=False)
    assert svc.holdings()[job.jobid] == [held]
    jcluster4.assert_no_crashes()


def test_machine_dead_with_no_live_holder(jcluster4, frees):
    svc = jcluster4.broker
    _ghost_allocation(svc, "n02")
    jcluster4.crash_machine("n02", reboot_after=None)
    jcluster4.env.run(until=jcluster4.now + 10.0)

    assert [e["host"] for e in svc.events_of("machine_dead")] == ["n02"]
    _freed(frees, "n02", "machine_dead").assert_clean(spanned=False)
    assert svc.state.machines["n02"].allocation is None


def _loaning_federation():
    """Two shards, ``p00`` (ann's) on the donor; a 4-wide job on the
    borrower has two local candidates, so it borrows both of the donor's
    machines.  Runs until ``p00`` is on loan."""
    spec = ClusterSpec(
        machines=[
            MachineSpec(name="n00"),
            MachineSpec(name="n01"),
            MachineSpec(name="n02"),
            MachineSpec(name="n03"),
            MachineSpec(name="p00", private_owner="ann"),
        ],
        seed=2,
    )
    cluster = Cluster(spec)
    federation = cluster.start_federation(shards=2, journal=True)
    federation.wait_ready()
    handle = federation.submit(
        "n00", ["calypso", "60", "2.0", "4"], rsl="+(adaptive)", uid="cal"
    )
    borrower, donor = federation.services
    _until(cluster, lambda: "p00" in borrower.state.machines)
    assert donor.state.machine("p00").allocation.state is AllocationState.MIGRATING
    return cluster, handle, borrower, donor


def test_loan_ended_by_the_donor(frees):
    """The borrower's broker dies; ann sits down at the loaned machine (a
    recall nobody hears) and then the machine dies: the donor ends the
    loan itself and forgets the recall."""
    cluster, _handle, borrower, donor = _loaning_federation()
    borrower.crash_broker()
    cluster.machine("p00").console_active = True
    cluster.env.run(until=cluster.now + 3.0)
    assert "p00" in recalled(donor)
    cluster.crash_machine("p00", reboot_after=None)
    cluster.env.run(until=cluster.now + 10.0)

    (ended,) = donor.events_of("loan_reclaimed")
    assert (ended["host"], ended["outcome"]) == ("p00", "machine_dead")
    freed = _freed(frees, "p00", "machine_dead")
    assert freed.control is donor.control
    freed.assert_clean(spanned=False)
    assert "p00" not in recalled(donor)
    assert donor.state.machine("p00").allocation is None


def test_loan_recalled_with_no_holder(frees):
    """The borrowing job's app is gone (its session orphaned) when the
    donor recalls the loan: the borrower drops the record on the spot and
    returns the machine."""
    cluster, handle, borrower, donor = _loaning_federation()
    handle.proc.signal(SIGKILL)
    cluster.machine("p00").console_active = True
    _until(cluster, lambda: donor.events_of("loan_release"))

    assert [e["host"] for e in donor.events_of("loan_recall")] == ["p00"]
    assert borrower.events_of("loan_recalled") == []  # no holder to revoke
    freed = _freed(frees, "p00", "loan_recalled")
    assert freed.control is borrower.control
    freed.assert_clean(spanned=False)
    assert "p00" not in borrower.state.machines
    returned = _freed(frees, "p00", None)
    assert returned.control is donor.control
    returned.assert_clean(spanned=False)
    assert donor.state.machine("p00").allocation is None
    assert "p00" not in recalled(donor)
