"""A stateful model of the allocation lifecycle alone (no cluster).

Hypothesis drives the real transitions — grant, reclaim, renew,
confirm-recovered, adopt, loan, release, the lease sweeper's expiry and a
recovery — over a hand-built :class:`BrokerState` journalled to a simulated
:class:`Filesystem`, and after every step checks three things:

* one holder per host: each machine holds at most one allocation, named
  for that host, the by-job index agrees, and a reserved request is the
  claim of its host's reclaim;
* no allocation has a deadline in the past unless it is overdue, except
  ROADMAP item 1(a)'s case (RECLAIMING, victim attached, lease passed);
* the journal replays to the live state's :func:`state_fingerprint`.
"""

import functools
import itertools

import pytest

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.broker.journal import BrokerJournal
from repro.broker.recovery import restamp_recovered, state_fingerprint
from repro.broker.records import AllocationState, PendingRequest
from repro.broker.state import BrokerState
from repro.os.filesystem import Filesystem

HOSTS = ["n00", "n01", "n02", "n03"]
TTL = 12.0
#: A sibling shard's job, the borrower of a loan.
BORROWER_JOB = 1_000_001


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class LifecycleModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = Clock()
        self.fs = Filesystem()
        self.state = BrokerState()
        for host in HOSTS:
            self.state.add_machine(host)
        for rsl in ("", "+(adaptive)", ""):
            self.state.register_job("u", "n00", rsl, ["compute", "1"])
        self.epoch = 1
        self.journal = self._journal()
        self.journal.attach(self.state, epoch=self.epoch, compact=True)
        self.reqids = itertools.count(1)
        #: Hosts whose lease confirm_recovered extended with no ``leases``
        #: note (its named quirk): replay may read an earlier expiry there.
        self.unnoted = set()

    def _journal(self):
        return BrokerJournal(self.fs, self.clock, compact_bytes=600)

    def _allocation(self, host):
        return self.state.machines[host].allocation

    def _hosts(self, held, pick):
        """The ``pick``-th host that is held (or free), or None."""
        hosts = [h for h in HOSTS if (self._allocation(h) is not None) == held]
        return hosts[pick % len(hosts)] if hosts else None

    def _job(self, pick):
        jobs = sorted(self.state.jobs)
        return jobs[pick % len(jobs)]

    # -- the world around the lifecycle ----------------------------------

    @rule(dt=st.floats(min_value=0.5, max_value=15.0))
    def advance(self, dt):
        self.clock.now += dt

    @rule(pick=st.integers(0, 7), attached=st.booleans())
    def session(self, pick, attached):
        self.state.jobs[self._job(pick)].conn = object() if attached else None

    @rule(pick=st.integers(0, 7), firm=st.booleans())
    def request(self, pick, firm):
        self.state.pending.append(
            PendingRequest(
                reqid=next(self.reqids), jobid=self._job(pick),
                symbolic="anylinux", firm=firm, arrived_at=self.clock.now,
            )
        )

    @precondition(lambda self: self.state.pending)
    @rule(pick=st.integers(0, 7))
    def withdraw(self, pick):
        pending = list(self.state.pending)
        self.state.pending.remove(pending[pick % len(pending)])

    # -- the transitions --------------------------------------------------

    @rule(host=st.sampled_from(HOSTS), pick=st.integers(0, 7), leased=st.booleans())
    def grant(self, host, pick, leased):
        now = self.clock.now
        grant = functools.partial(
            self.state.allocate, host, self._job(pick), firm=pick % 2 == 0,
            now=now, lease_expires_at=now + TTL if leased else float("inf"),
        )
        if self._allocation(host) is not None:
            with pytest.raises(RuntimeError):
                grant()  # one holder per host
            return
        grant()
        self.unnoted.discard(host)

    @rule(host=st.integers(0, 7), claimed=st.booleans())
    def reclaim(self, host, claimed):
        active = [
            h for h in HOSTS
            if (a := self._allocation(h)) and a.state is AllocationState.ACTIVE
        ]
        if not active:
            return
        claimants = [r for r in self.state.pending if r.reserved_host is None]
        claim = claimants[0] if claimed and claimants else None
        self._allocation(active[host % len(active)]).reclaim(
            self.clock.now, claim, self.state.journal
        )

    @rule(host=st.integers(0, 7))
    def renew(self, host):
        host = self._hosts(True, host)
        if host is not None:
            self._allocation(host).renew(self.clock.now + TTL, self.state.journal)
            self.unnoted.discard(host)

    @rule(host=st.integers(0, 7))
    def confirm(self, host):
        host = self._hosts(True, host)
        if host is not None:
            self._allocation(host).confirm_recovered(
                self.clock.now + TTL, confirmed=True
            )
            self.unnoted.add(host)

    @rule(host=st.integers(0, 7), extra=st.floats(min_value=0.0, max_value=2 * TTL))
    def readopt(self, host, extra):
        """A repeat adoption of the holding: refreshes the lease."""
        host = self._hosts(True, host)
        if host is not None:
            now = self.clock.now
            jobid = self._allocation(host).jobid
            assert self.state.adopt_allocation(host, jobid, now, now + extra)
            self.unnoted.discard(host)

    @rule(host=st.integers(0, 7), pick=st.integers(0, 8))
    def adopt(self, host, pick):
        """Adoption of a free host, for a held job or an unknown one (held
        under a placeholder)."""
        host = self._hosts(False, host)
        if host is None:
            return
        jobid = self._job(pick) if pick < 8 else max(self.state.jobs) + 5
        now = self.clock.now
        self.state.adopt_allocation(host, jobid, now, now + TTL)
        self.unnoted.discard(host)

    @rule(host=st.integers(0, 7))
    def loan(self, host):
        host = self._hosts(False, host)
        if host is None:
            return
        now = self.clock.now
        allocation = self.state.allocate(
            host, BORROWER_JOB, firm=False, now=now, lease_expires_at=now + TTL
        )
        allocation.loan(1, self.state.journal)
        self.unnoted.discard(host)

    @rule(host=st.integers(0, 7))
    def release(self, host):
        host = self._hosts(True, host)
        if host is not None:
            self.state.release(host)

    @rule()
    def sweep(self):
        """The lease sweeper's expiry: an attached ACTIVE holder is revoked,
        anything else overdue is freed."""
        now, jobs = self.clock.now, self.state.jobs
        for host in HOSTS:
            allocation = self._allocation(host)
            if allocation is None or allocation.deadline(now, jobs) is not None:
                continue
            if (
                allocation.state is AllocationState.ACTIVE
                and jobs[allocation.jobid].conn is not None
            ):
                allocation.reclaim(now, None, self.state.journal)
            else:
                self.state.release(host)

    @rule()
    def recover(self):
        """A journal restart: replay, re-stamp, attach and compact."""
        self.journal.flush(force=True)
        successor = self._journal()
        rebuilt, info = successor.load_state()
        restamp_recovered(rebuilt, self.clock.now, TTL)
        self.epoch = max(self.epoch, info.epoch) + 1
        successor.attach(rebuilt, epoch=self.epoch, compact=True)
        self.state, self.journal = rebuilt, successor
        self.unnoted.clear()

    # -- the three properties ---------------------------------------------

    @invariant()
    def one_holder_per_host(self):
        held = {}
        for host, record in self.state.machines.items():
            allocation = record.allocation
            if allocation is not None:
                assert allocation.host == host
                held.setdefault(allocation.jobid, []).append(allocation)
        for jobid, allocations in held.items():
            assert self.state.allocations_of(jobid) == allocations
        assert len({id(a) for a in itertools.chain(*held.values())}) == sum(
            map(len, held.values())
        )
        for request in self.state.pending:
            if request.reserved_host is not None:
                allocation = self._allocation(request.reserved_host)
                assert allocation is not None
                assert allocation.state is AllocationState.RECLAIMING
                assert allocation.claimed_by is request

    @invariant()
    def no_past_deadline_unless_overdue(self):
        now, jobs = self.clock.now, self.state.jobs
        for record in self.state.machines.values():
            allocation = record.allocation
            if allocation is None:
                continue
            deadline = allocation.deadline(now, jobs)
            if deadline is not None and deadline <= now:
                # ROADMAP 1(a), the one named exception.
                assert allocation.state is AllocationState.RECLAIMING
                assert jobs[allocation.jobid].conn is not None

    @invariant()
    def replays_to_the_same_fingerprint(self):
        self.journal.flush(force=True)
        rebuilt, info = self.journal.load_state()
        assert info.skipped_ops == 0 and info.torn_tails == 0
        live, replayed = state_fingerprint(self.state), state_fingerprint(rebuilt)
        for host in self.unnoted & set(live["allocations"]):
            assert replayed["allocations"][host]["expires"] <= (
                live["allocations"][host]["expires"]
            )
            replayed["allocations"][host]["expires"] = (
                live["allocations"][host]["expires"]
            )
        assert replayed == live


LifecycleModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
test_lifecycle_model = LifecycleModel.TestCase
