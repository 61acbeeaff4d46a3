"""One adoption decision: every allocation names a job the broker holds.

``BrokerState.adopt_allocation`` is the one way to bind a host to a jobid
outside a grant (a daemon inventory or a resuming app testifying to a
pre-crash holding).  It renews the allocation a host already holds,
refuses a finished job and a sibling shard's jobid, holds an unknown
jobid of its own space under a placeholder job that the app's ``resume``
fills in, and journals what it decides.
"""

import pytest

from repro.broker.invariants import run_by_steps
from repro.broker.journal import BrokerJournal
from repro.broker.recovery import state_fingerprint
from repro.broker.state import BrokerState
from repro.os.filesystem import Filesystem
from tests.broker.conftest import install_greedy

#: Shard 0's jobid space in a federation of two or more.
SHARD_0 = range(1, 1_000_001)


def _finished(state, journal):
    job = state.register_job("u", "n00", "", ["x"])
    job.done = True
    journal.record({"op": "job_done", "jobid": job.jobid, "prune": False})
    return job.jobid


def _held(state, journal):
    return state.register_job("u", "n00", "", ["x"]).jobid


def _loaned(state, journal):
    """The host is out on loan to a sibling shard's job: a repeat renews."""
    state.allocate("n01", SHARD_0.stop, firm=False, now=0.0, lease_expires_at=5.0)
    return SHARD_0.stop


@pytest.mark.parametrize(
    "jobid_of, adopted, placeholder",
    [
        pytest.param(_held, True, False, id="held"),
        pytest.param(_finished, False, False, id="finished"),
        pytest.param(lambda state, journal: SHARD_0.stop, False, False, id="sibling"),
        pytest.param(lambda state, journal: 7, True, True, id="unknown-own"),
        pytest.param(_loaned, True, False, id="repeat"),
    ],
)
def test_adoption_decision_is_journaled(jobid_of, adopted, placeholder):
    journal = BrokerJournal(Filesystem(), lambda: 0.0)
    state = BrokerState(jobid_space=SHARD_0)
    state.add_machine("n01")
    journal.attach(state, epoch=1, compact=True)
    jobid = jobid_of(state, journal)
    jobs_before = set(state.jobs)

    allocation = state.adopt_allocation("n01", jobid, now=1.0, lease_expires_at=13.0)

    assert (allocation is not None) == adopted
    assert state.machines["n01"].allocation is allocation
    if adopted:
        assert (allocation.jobid, allocation.lease_expires_at) == (jobid, 13.0)
    assert (set(state.jobs) - jobs_before == {jobid}) == placeholder
    if placeholder:
        job = state.jobs[jobid]
        assert job.placeholder and job.conn is None and job.argv == []
    # What was decided replays: the placeholder is a journaled job.
    journal.flush(force=True)
    rebuilt, info = journal.load_state()
    assert info.skipped_ops == 0
    assert state_fingerprint(rebuilt) == state_fingerprint(state)


def test_resume_claims_the_placeholder_with_its_own_fields(cluster4):
    """A blank restart adopts the job's leases from the daemons' hellos
    before the app resumes: the placeholder holds them (reclaimable, with
    no session to revoke through) until the resume fills the job in."""
    svc = cluster4.broker
    install_greedy(cluster4)
    handle = svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)", uid="ann")
    cluster4.env.run(until=cluster4.now + 5.0)
    jobid = handle.job_record().jobid
    held = svc.holdings()[jobid]

    svc.crash_broker()
    cluster4.env.run(until=cluster4.now + 2.0)
    svc.restart_broker()
    placeholders = set()

    def watch():
        job = svc.state.jobs.get(jobid)
        if job is not None and job.placeholder:
            placeholders.update(svc.holdings().get(jobid, ()))

    run_by_steps(cluster4.env, until=cluster4.now + 10.0, check=watch)

    assert placeholders == set(held)
    job = svc.state.jobs[jobid]
    assert not job.placeholder and job.conn is not None
    assert (job.user, job.home_host, job.rsl.source, job.argv, job.adaptive) == (
        "ann", "n00", "+(adaptive)", ["greedy", "2"], True
    )
    assert svc.holdings()[jobid] == held
    assert handle.job_record() is job
    cluster4.assert_no_crashes()
