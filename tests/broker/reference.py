"""The full-scan reference scheduler: the oracle the indexed one must match.

The seed's broker answered every state query by scanning the whole machine
table and re-evaluated every pending request until a pass made no progress.
The shipped broker answers from incremental indexes and evaluates only
dirty requests (DESIGN.md §12); these are the seed's versions, kept here as
the reference ``test_sched_equivalence.py`` and ``test_state_indexes.py``
check it against — decision for decision, byte for byte.

:func:`install` swaps them in for every broker a test builds;
:func:`reference_state` binds the queries to one hand-built state only;
:func:`assert_indexes_coherent` rebuilds a live state's indexes from its
machine table and compares.
"""

from __future__ import annotations

import types

from repro.broker.core import _BrokerControl
from repro.broker.state import BrokerState
from repro.policy.base import Decision
from repro.policy.default import DefaultPolicy
from repro.rsl import symbolic_matches

# -- full-scan state queries ---------------------------------------------------


def tracked_records(self):
    return [m for m in self.machines.values() if m.last_seen >= 0.0 and not m.dead]


def leased_records(self):
    return [m for m in self.machines.values() if m.allocation is not None]


def all_reported(self, hosts):
    return all(self.machines[h].reported for h in hosts if h in self.machines)


def allocations_of(self, jobid):
    return [
        m.allocation
        for m in self.machines.values()
        if m.allocation is not None and m.allocation.jobid == jobid
    ]


def holding_count(self, jobid):
    return len(allocations_of(self, jobid))


def eligible_machines(self, request):
    job = self.jobs[request.jobid]
    result = []
    self.machines_scanned += len(self.machines)
    for record in self.machines.values():
        if not record.reported:
            continue
        if record.borrowed_from is not None:
            continue
        if record.host == job.home_host:
            continue
        if not symbolic_matches(request.symbolic, record.snapshot_view()):
            continue
        if not job.rsl.matches_machine(record.snapshot_view()):
            continue
        if record.console_active:
            continue  # the owner is at the console: hands off
        if record.kind == "private" and not job.adaptive:
            continue
        result.append(record)
    return result


def idle_machines(self, request):
    free = [m for m in eligible_machines(self, request) if m.allocation is None]
    free.sort(key=lambda m: (m.kind != "public", m.cpu_load, m.host))
    return free


def held_eligible(self, request):
    return [m for m in eligible_machines(self, request) if m.allocation is not None]


def satisfiable_somewhere(self, symbolic, job):
    self.machines_scanned += len(self.machines)
    for record in self.machines.values():
        if not record.reported or record.host == job.home_host:
            continue
        if record.borrowed_from is not None:
            continue
        view = record.snapshot_view()
        if symbolic_matches(symbolic, view) and job.rsl.matches_machine(view):
            return True
    return False


def pending_sorted(self):
    firm = [r for r in self.pending if r.firm]
    elastic = [r for r in self.pending if not r.firm]
    firm.sort(key=lambda r: (r.arrived_at, r.reqid))
    elastic.sort(key=lambda r: (self.holding_count(r.jobid), r.arrived_at, r.reqid))
    return firm + elastic


def reported_count(self):
    return sum(1 for m in self.machines.values() if m.reported)


QUERIES = {
    fn.__name__: fn
    for fn in (
        tracked_records,
        leased_records,
        all_reported,
        allocations_of,
        holding_count,
        idle_machines,
        held_eligible,
        satisfiable_somewhere,
        pending_sorted,
        reported_count,
    )
}


def reference_state(state: BrokerState) -> BrokerState:
    """Make ``state`` answer every query by full scan (this instance only)."""
    for name, fn in QUERIES.items():
        setattr(state, name, types.MethodType(fn, state))
    return state


def assert_indexes_coherent(state: BrokerState) -> None:
    """Every membership index of ``state``, and its reported count, equals
    one rebuilt from ``state.machines``; every idle machine has a live
    idle-heap entry."""
    machines = state.machines
    reported, usable, idle, held = {}, {}, {}, {}
    for host, m in machines.items():
        if m.reported:
            reported.setdefault(m.platform, {})[host] = id(m)
            if not m.console_active:
                usable.setdefault(m.platform, {})[host] = id(m)
                if m.allocation is None:
                    idle.setdefault(m.platform, {})[host] = id(m)
        if m.allocation is not None:
            held.setdefault(m.allocation.jobid, {})[host] = id(m.allocation)

    def ids(index):
        # Platform buckets outlive their last member; a jobid's entry must not.
        return {
            key: {host: id(value) for host, value in members.items()}
            for key, members in index.items()
            if members or index is state._allocations_by_jobid
        }

    assert ids(state._reported_by_platform) == reported
    assert ids(state._usable_by_platform) == usable
    assert ids(state._idle_by_platform) == idle
    assert ids(state._allocations_by_jobid) == held
    assert {h: id(m) for h, m in state._leased.items()} == {
        h: id(m) for h, m in machines.items() if m.allocation is not None
    }
    assert {h: id(m) for h, m in state._tracked.items()} == {
        h: id(m) for h, m in machines.items() if m.last_seen >= 0.0 and not m.dead
    }
    assert state.reported_count() == sum(len(b) for b in reported.values())
    assert state.all_reported(machines) == all(m.reported for m in machines.values())
    for platform, members in idle.items():
        heap = set(state._idle_heap.get(platform, ()))
        for host in members:
            m = machines[host]
            assert (m.kind != "public", m.cpu_load, host) in heap, host


# -- the reference policy path and scheduler loop ------------------------------


def decide(self, state, request):
    """:meth:`DefaultPolicy.decide` over one full eligibility scan, which
    serves both the idle search and the victim search."""
    eligible = eligible_machines(state, request)
    idle = [m for m in eligible if m.allocation is None]
    if idle:
        idle.sort(key=lambda m: (m.kind != "public", m.cpu_load, m.host))
        return Decision.grant(idle[0].host)
    victim = self._pick_victim(state, request, eligible)
    if victim is not None:
        machine, allocation = victim
        return Decision.preempt(machine.host, allocation.jobid)
    return Decision.wait("no idle machine and no preemptable holding")


def schedule(self):
    """Evaluate every pending request; repeat until a pass makes no
    progress."""
    decisions = self._policy_decisions
    progress = True
    while progress:
        progress = False
        self._sched_passes.inc()
        for request in self.state.pending_sorted():
            if request not in self.state.pending:
                continue  # satisfied earlier in this very pass
            if request.reserved_host is not None:
                continue  # a machine is being reclaimed for this one
            job = self.state.jobs.get(request.jobid)
            if job is None or job.done:
                self.state.pending.remove(request)
                continue
            if job.conn is None:
                # Orphaned session: hold its requests (it may resume and
                # want them) but never grant into the void.
                continue
            decision = self.policy.decide(self.state, request)
            decisions.inc()
            if decision.kind.value == "grant":
                self._grant(request, decision.host)
                progress = True
            elif decision.kind.value == "preempt":
                self._start_reclaim(decision.host, claimed_by=request)
                progress = True
    return
    yield  # pragma: no cover - generator form for uniform call sites


def satisfiable(self, job, symbolic):
    """The deny check without the capability-version memo."""
    return self.state.satisfiable_somewhere(symbolic, job)


def install(monkeypatch) -> None:
    """Run every broker built from here on with the reference scheduler."""
    for name, fn in QUERIES.items():
        monkeypatch.setattr(BrokerState, name, fn)
    monkeypatch.setattr(DefaultPolicy, "decide", decide)
    monkeypatch.setattr(_BrokerControl, "_schedule", schedule)
    monkeypatch.setattr(_BrokerControl, "_satisfiable", satisfiable)
