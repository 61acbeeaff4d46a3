"""Property: snapshot+replay rebuilds the durable contract field-for-field.

A randomized sequence of the exact mutations the broker journals — machine
view changes, job registration and completion, pending-queue churn, and the
allocation lifecycle's own transitions (grants, releases, reclaims, lease
renewals through adoption) — is driven through a journalled
:class:`BrokerState` (with compaction forced often, so most runs cross
several snapshot generations).  Replaying the disk image must then produce
a state whose :func:`state_fingerprint` equals the live one's exactly.
"""

import random

import pytest

from repro.broker.journal import BrokerJournal
from repro.broker.recovery import state_fingerprint
from repro.broker.records import AllocationState, PendingRequest
from repro.broker.state import BrokerState
from repro.os.filesystem import Filesystem


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


HOSTS = [f"n{i:02d}" for i in range(6)]


def _random_ops(state, journal, clock, rng, steps, reqid=None):
    """One random mutation stream through the journalling mutators.

    ``reqid`` is a shared id iterator: like the real request protocol,
    (jobid, reqid) pairs must stay unique across a broker's whole life,
    restarts included.
    """
    if reqid is None:
        reqid = iter(range(1, 10_000))
    for _ in range(steps):
        clock.now += rng.uniform(0.1, 3.0)
        choice = rng.random()
        free = [h for h in HOSTS if state.machines[h].allocation is None]
        held = [h for h in HOSTS if state.machines[h].allocation is not None]
        if choice < 0.15:
            state.register_job(
                rng.choice(["ann", "bob"]),
                rng.choice(HOSTS),
                rng.choice(["", "+(adaptive)"]),
                ["compute", f"{rng.uniform(1, 9):.1f}"],
            )
        elif choice < 0.30:
            # Machine view churn: coalesced notes, durable at the next flush.
            record = state.machines[rng.choice(HOSTS)]
            record.cpu_load = rng.randrange(4)
            record.n_processes = rng.randrange(10)
            record.console_active = rng.random() < 0.3
            record.last_report = clock.now
            record.last_seen = clock.now
        elif choice < 0.45 and state.jobs and free:
            state.allocate(
                rng.choice(free),
                rng.choice(list(state.jobs)),
                firm=rng.random() < 0.5,
                now=clock.now,
                lease_expires_at=clock.now + rng.uniform(10.0, 60.0),
            )
        elif choice < 0.55 and held:
            # The release transition also un-reserves any claim on the host.
            state.release(rng.choice(held))
        elif choice < 0.65 and state.jobs:
            state.pending.append(
                PendingRequest(
                    reqid=next(reqid),
                    jobid=rng.choice(list(state.jobs)),
                    symbolic=rng.choice(["anylinux", "anysolaris"]),
                    firm=rng.random() < 0.5,
                    arrived_at=clock.now,
                )
            )
        elif choice < 0.72 and state.pending:
            state.pending.remove(rng.choice(list(state.pending)))
        elif choice < 0.80 and held:
            # Reclaim, optionally claimed by a pending request.
            host = rng.choice(held)
            allocation = state.machines[host].allocation
            if allocation.state is AllocationState.ACTIVE:
                claimants = [
                    r for r in state.pending if r.reserved_host is None
                ]
                claimed_by = (
                    rng.choice(claimants)
                    if claimants and rng.random() < 0.6
                    else None
                )
                allocation.reclaim(clock.now, claimed_by, journal)
        elif choice < 0.88 and held:
            # Lease renewal through the re-adoption path (note_lease).
            host = rng.choice(held)
            allocation = state.machines[host].allocation
            state.adopt_allocation(
                host,
                allocation.jobid,
                now=clock.now,
                lease_expires_at=clock.now + rng.uniform(20.0, 90.0),
            )
        elif state.jobs:
            # Job completion, with or without service-mode pruning
            # (core.py's _finish_job, mirrored).
            jobid = rng.choice(list(state.jobs))
            prune = rng.random() < 0.5
            if prune:
                state.jobs.pop(jobid)
            else:
                state.jobs[jobid].done = True
            journal.record({"op": "job_done", "jobid": jobid, "prune": prune})


@pytest.mark.parametrize("seed", range(10))
def test_snapshot_replay_equivalence(seed):
    rng = random.Random(seed)
    clock = Clock()
    journal = BrokerJournal(
        Filesystem(),
        clock,
        # Small enough that most runs compact several times, so equivalence
        # is proven across snapshot generations, not just raw WAL replay.
        compact_bytes=rng.choice([400, 1200, 65536]),
    )
    state = BrokerState()
    for host in HOSTS:
        state.add_machine(host)
    journal.attach(state, epoch=1)

    _random_ops(state, journal, clock, rng, steps=150)

    assert journal.flush(force=True)
    loaded = journal.load_state()
    assert loaded is not None
    rebuilt, info = loaded
    assert info.torn_tails == 0
    assert info.corrupt_records == 0
    assert info.skipped_ops == 0
    assert state_fingerprint(rebuilt) == state_fingerprint(state)
    assert info.epoch == 1


@pytest.mark.parametrize("seed", range(4))
def test_replay_equivalence_survives_a_mid_stream_restart(seed):
    """Recovery composed with more mutations and a second recovery is still
    exact: the post-recovery compaction re-bases the journal correctly."""
    rng = random.Random(1000 + seed)
    clock = Clock()
    fs = Filesystem()
    journal = BrokerJournal(fs, clock, compact_bytes=800)
    state = BrokerState()
    for host in HOSTS:
        state.add_machine(host)
    journal.attach(state, epoch=1)
    reqid = iter(range(1, 10_000))
    _random_ops(state, journal, clock, rng, steps=80, reqid=reqid)
    journal.flush(force=True)

    # "Restart": a successor journal over the same disk recovers, then keeps
    # journalling new mutations against the recovered state.
    successor = BrokerJournal(fs, clock, compact_bytes=800)
    rebuilt, info = successor.load_state()
    assert state_fingerprint(rebuilt) == state_fingerprint(state)
    successor.attach(rebuilt, epoch=info.epoch + 1, compact=True)
    _random_ops(rebuilt, successor, clock, rng, steps=80, reqid=reqid)
    successor.flush(force=True)

    final, info2 = successor.load_state()
    assert info2.epoch == info.epoch + 1
    assert state_fingerprint(final) == state_fingerprint(rebuilt)
