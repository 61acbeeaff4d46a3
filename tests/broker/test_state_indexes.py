"""The incremental indexes agree with the full-scan reference queries.

``BrokerState`` answers every derived query from incremental indexes
maintained through the record ``__setattr__`` hook; the seed's O(machines)
scans live on in ``tests/broker/reference.py``.  These tests drive a state
of each kind through identical mutation sequences — including the nasty
paths: console toggles, report loss, death and rejoin, platform changes,
forgetting and re-adding a machine — and require identical answers, the
dirty-scheduling safety invariant (a clean pending request's decision is
always "wait"), and indexes that equal ones rebuilt from the machine table.
"""

from __future__ import annotations

import random

import pytest

from repro.broker.invariants import Oracle, checked
from repro.broker.records import PendingRequest
from repro.broker.state import BrokerState
from repro.experiments import run_chaos
from repro.policy.default import DefaultPolicy
from tests.broker.reference import (
    assert_indexes_coherent,
    eligible_machines,
    reference_state,
)

PLATFORMS = ("i686linux", "sparcsolaris")


def _snapshot(platform, kind="public", owner=None, console=False, load=0, t=1.0):
    return {
        "platform": platform,
        "kind": kind,
        "owner": owner,
        "console_active": console,
        "cpu_load": load,
        "n_processes": 1,
        "time": t,
    }


def _build(use_indexes: bool, n: int = 12) -> BrokerState:
    state = BrokerState() if use_indexes else reference_state(BrokerState())
    for i in range(n):
        state.add_machine(f"h{i:02d}")
    # Jobs: an adaptive one (may take private machines) and a rigid one.
    state.register_job("ann", "h00", "+(adaptive)", ["greedy"])
    state.register_job("bob", "h01", "", ["compute"])
    return state


def _mirror(states, op):
    for state in states:
        op(state)


def _queries_agree(indexed: BrokerState, fullscan: BrokerState) -> None:
    assert indexed.all_reported(indexed.machines) == fullscan.all_reported(
        fullscan.machines
    )
    assert {r.host for r in indexed.tracked_records()} == {
        r.host for r in fullscan.tracked_records()
    }
    assert {r.host for r in indexed.leased_records()} == {
        r.host for r in fullscan.leased_records()
    }
    for jobid in indexed.jobs:
        assert indexed.holding_count(jobid) == fullscan.holding_count(jobid)
        # allocations_of promises the seed's machine-table order exactly
        # (broker message sequences depend on it), not just the same set.
        assert [a.host for a in indexed.allocations_of(jobid)] == [
            a.host for a in fullscan.allocations_of(jobid)
        ]
    assert [
        (r.jobid, r.reqid) for r in indexed.pending_sorted()
    ] == [(r.jobid, r.reqid) for r in fullscan.pending_sorted()]
    for request, reference in zip(indexed.pending, fullscan.pending):
        job = indexed.jobs[request.jobid]
        # Unordered agreement for the raw candidate sets (policies sort with
        # total-order keys), exact agreement for the pre-sorted idle list.
        # The idle and held candidates together are the seed's eligible set.
        assert {
            m.host
            for m in indexed.idle_machines(request) + indexed.held_eligible(request)
        } == {m.host for m in eligible_machines(fullscan, reference)}
        reference_idle = fullscan.idle_machines(reference)
        assert [m.host for m in indexed.idle_machines(request)] == [
            m.host for m in reference_idle
        ]
        best = indexed.best_idle(request)
        assert (best.host if best else None) == (
            reference_idle[0].host if reference_idle else None
        )
        assert {m.host for m in indexed.held_eligible(request)} == {
            m.host for m in fullscan.held_eligible(reference)
        }
        assert indexed.satisfiable_somewhere(
            request.symbolic, job
        ) == fullscan.satisfiable_somewhere(
            request.symbolic, fullscan.jobs[request.jobid]
        )


def _clean_requests_would_wait(indexed: BrokerState) -> None:
    """The dirty-scheduling safety invariant: any pending request the policy
    would act on right now must be flagged for re-evaluation."""
    if indexed._all_pending_dirty:
        return
    policy = DefaultPolicy()
    for request in indexed.pending:
        if request.dirty or request.reserved_host is not None:
            continue
        decision = policy.decide(indexed, request)
        assert decision.kind.value == "wait", (
            f"clean request {request.reqid} would {decision.kind.value}: "
            f"a dirty mark was missed"
        )


def test_randomized_mutations_agree_with_fullscan():
    rng = random.Random(7)
    indexed = _build(True)
    fullscan = _build(False)
    states = (indexed, fullscan)
    hosts = sorted(indexed.machines)
    clock = [1.0]

    def tick() -> float:
        clock[0] += 1.0
        return clock[0]

    def op_report(host, platform, kind, owner, console, load):
        t = tick()

        def apply(state):
            state.machines[host].update(
                _snapshot(platform, kind, owner, console, load, t)
            )

        return apply

    def op_lose_report(host):
        def apply(state):
            record = state.machines[host]
            record.last_report = -1.0
            record.leases = ()

        return apply

    def op_mark_dead(host):
        def apply(state):
            record = state.machines[host]
            if record.allocation is not None:
                state.release(host)
            record.dead = True
            record.last_report = -1.0

        return apply

    def op_forget_and_readd(host):
        def apply(state):
            state.forget_machine(host)
            state.add_machine(host)

        return apply

    def op_toggle_dead_if_idle(host):
        def apply(state):
            record = state.machines[host]
            if (
                record.reported
                and not record.console_active
                and record.allocation is None
            ):
                record.dead = not record.dead

        return apply

    def op_allocate(host, jobid, firm):
        t = tick()

        def apply(state):
            record = state.machines[host]
            if record.allocation is None:
                state.allocate(host, jobid, firm=firm, now=t)

        return apply

    def op_release(host):
        def apply(state):
            if state.machines[host].allocation is not None:
                state.release(host)

        return apply

    def op_request(reqid, jobid, symbolic, firm):
        t = tick()

        def apply(state):
            state.pending.append(
                PendingRequest(
                    reqid=reqid,
                    jobid=jobid,
                    symbolic=symbolic,
                    firm=firm,
                    arrived_at=t,
                )
            )

        return apply

    def op_drop_request():
        def apply(state):
            if state.pending:
                state.pending.remove(state.pending[0])

        return apply

    reqid = [0]
    for step in range(400):
        host = rng.choice(hosts)
        jobid = rng.choice(sorted(indexed.jobs))
        roll = rng.random()
        if roll < 0.41:
            op = op_report(
                host,
                rng.choice(PLATFORMS),
                rng.choice(("public", "private")),
                rng.choice((None, "ann", "bob")),
                rng.random() < 0.2,
                rng.randrange(3),
            )
        elif roll < 0.50:
            op = op_lose_report(host)
        elif roll < 0.56:
            op = op_mark_dead(host)
        elif roll < 0.59:
            op = op_forget_and_readd(host)
        elif roll < 0.62:
            op = op_toggle_dead_if_idle(host)
        elif roll < 0.78:
            op = op_allocate(host, jobid, rng.random() < 0.5)
        elif roll < 0.88:
            op = op_release(host)
        elif roll < 0.96:
            reqid[0] += 1
            op = op_request(
                reqid[0],
                jobid,
                rng.choice(("anylinux", "anysolaris", "anymachine")),
                rng.random() < 0.5,
            )
        else:
            op = op_drop_request()
        _mirror(states, op)
        for state in states:
            assert_indexes_coherent(state)
        if step % 10 == 0:
            _queries_agree(indexed, fullscan)
            _clean_requests_would_wait(indexed)
    _queries_agree(indexed, fullscan)
    _clean_requests_would_wait(indexed)
    # The exercise must have been adversarial enough to mean something.
    assert indexed.machines_scanned < fullscan.machines_scanned


@pytest.fixture
def state():
    s = _build(True, n=4)
    for i, host in enumerate(sorted(s.machines)):
        s.machines[host].update(_snapshot("i686linux", load=i))
    return s


def _request(state, jobid=1, symbolic="anylinux", firm=True, at=5.0, reqid=1):
    request = PendingRequest(
        reqid=reqid, jobid=jobid, symbolic=symbolic, firm=firm, arrived_at=at
    )
    state.pending.append(request)
    return request


def test_idle_partition_tracks_allocation_and_console(state):
    request = _request(state)
    assert [m.host for m in state.idle_machines(request)] == ["h01", "h02", "h03"]
    state.allocate("h01", 1, firm=False, now=6.0)
    assert [m.host for m in state.idle_machines(request)] == ["h02", "h03"]
    state.machines["h02"].console_active = True
    assert [m.host for m in state.idle_machines(request)] == ["h03"]
    state.release("h01")
    state.machines["h02"].console_active = False
    assert [m.host for m in state.idle_machines(request)] == ["h01", "h02", "h03"]


def test_capability_version_tracks_matching_universe(state):
    before = state.capability_version
    # A clock-only report changes nothing matchable: no bump.
    state.machines["h01"].update(_snapshot("i686linux", load=1, t=9.0))
    assert state.capability_version == before
    # A view-field change bumps (the deny memo must re-evaluate).
    state.machines["h01"].update(_snapshot("i686linux", load=2, t=10.0))
    assert state.capability_version > before
    # Losing and regaining a report bumps too (membership changed).
    mid = state.capability_version
    state.machines["h01"].last_report = -1.0
    assert state.capability_version > mid
    assert not state.all_reported(state.machines)
    state.machines["h01"].touch(11.0)
    assert state.all_reported(state.machines)


def test_take_dirty_pending_returns_service_order_and_clears(state):
    state._all_pending_dirty = False  # drain the initial all-dirty batch
    elastic = _request(state, symbolic="anylinux", firm=False, at=1.0, reqid=1)
    firm = _request(state, symbolic="anylinux", firm=True, at=2.0, reqid=2)
    batch = state.take_dirty_pending()
    assert batch == [firm, elastic]  # firm FIFO ahead of elastic
    assert not any(r.dirty for r in state.pending)
    assert state.take_dirty_pending() == []
    # A platform-relevant change re-flags exactly the matching requests.
    state.machines["h01"].cpu_load = 2
    assert [r.reqid for r in state.take_dirty_pending()] == [2, 1]
    # A request for an absent platform stays clean through linux-only churn.
    solaris = _request(state, symbolic="anysolaris", at=3.0, reqid=3)
    state.take_dirty_pending()
    state.machines["h02"].cpu_load = 1
    assert solaris not in state.take_dirty_pending()


def test_removed_request_never_resurfaces_from_dirty_list(state):
    state._all_pending_dirty = False
    request = _request(state)
    state.pending.remove(request)
    assert state.take_dirty_pending() == []
    state.machines["h01"].cpu_load = 1
    assert state.take_dirty_pending() == []


def test_indexes_coherent_after_every_event_of_federated_chaos(monkeypatch):
    """Two durable shards under chaos: loans end (the borrower forgets the
    machine) and shard 1 restarts from its journal, and after every event
    each shard's indexes still equal ones rebuilt from its machine table."""
    forgotten = []
    forget = BrokerState.forget_machine
    check = Oracle.check

    def counted_forget(state, host):
        forgotten.append(host)
        forget(state, host)

    def check_indexes_too(oracle):
        for service in oracle.services():
            assert_indexes_coherent(service.state)
        return check(oracle)

    monkeypatch.setattr(BrokerState, "forget_machine", counted_forget)
    monkeypatch.setattr(Oracle, "check", check_indexes_too)
    with checked() as watch:
        table = run_chaos(seed=1, shards=2)
    assert forgotten
    assert table.value("recoveries from journal") >= 1
    assert watch.settled() is None
