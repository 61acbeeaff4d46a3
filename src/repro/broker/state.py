"""Broker-side bookkeeping: the tables of machines, jobs, allocations and
pending requests (the records themselves live in :mod:`repro.broker.records`).

:class:`BrokerState` is deliberately a passive data structure — all decisions
live in :mod:`repro.policy` (the paper's mechanism/policy separation, design
goal 5), and all I/O lives in :mod:`repro.broker.core`.  This makes policies
unit-testable against hand-built states.

Control-plane scaling (DESIGN.md §12)
-------------------------------------
The state maintains **incremental indexes** so that broker decision cost is
independent of cluster size:

* ``_allocations_by_jobid`` makes :meth:`holding_count` /
  :meth:`allocations_of` O(1) instead of a scan over every machine (the seed
  scanned from *inside sort keys*, i.e. O(n²) per scheduling pass);
* per-platform partitions of the reported / usable / idle machine sets make
  eligibility queries O(candidates) instead of O(machines);
* the pending queue keeps a cached service order (firm FIFO, then
  poorest-first elastic) that is only re-sorted when membership or a holding
  count actually changes;
* a per-request **dirty** discipline tells the scheduler which pending
  requests may have a changed candidate set (see
  :meth:`take_dirty_pending`).

One method, :meth:`BrokerState._refile`, writes the six membership indexes;
the :class:`~repro.broker.records.MachineRecord` ``__setattr__`` hook,
:meth:`add_machine` and :meth:`forget_machine` call it.  The seed's
full-scan queries live on as the test oracle the equivalence tests install
in their place (``tests/broker/reference.py``).
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from typing import Any, Dict, List, Optional, Tuple

from repro.broker.records import (
    Allocation,
    JobRecord,
    MachineRecord,
    PendingRequest,
)
from repro.rsl import parse_rsl, symbolic_matches

#: The jobid space of a standalone broker: every id it could ever issue.
ALL_JOBIDS = range(1, 2**63)

#: MachineRecord fields that decide index membership: a change refiles the
#: record (``last_report`` / ``last_seen`` only when their sign flips).
_MEMBERSHIP_FIELDS = frozenset(
    {"platform", "console_active", "dead", "allocation", "last_report", "last_seen"}
)


class _PendingQueue(list):
    """The pending-request list, instrumented for index maintenance.

    Still a plain ``list`` to every caller (core and tests append/remove/
    iterate directly); the overrides keep the owning state's cached service
    order and dirty bookkeeping coherent."""

    def __init__(self, state: "BrokerState") -> None:
        super().__init__()
        self._state = weakref.ref(state)  # weak: the state holds this queue

    def append(self, request: PendingRequest) -> None:  # type: ignore[override]
        super().append(request)
        request.queued = True
        request.dirty = True
        state = self._state()
        state._order_cache = None
        state._dirty_list.append(request)
        journal = state.journal
        if journal is not None:
            journal.record(
                {
                    "op": "pend+",
                    "reqid": request.reqid,
                    "jobid": request.jobid,
                    "symbolic": request.symbolic,
                    "firm": request.firm,
                    "arrived": request.arrived_at,
                }
            )

    def remove(self, request: PendingRequest) -> None:  # type: ignore[override]
        super().remove(request)
        request.queued = False
        state = self._state()
        state._order_cache = None
        journal = state.journal
        if journal is not None:
            journal.record(
                {"op": "pend-", "reqid": request.reqid, "jobid": request.jobid}
            )


class BrokerState:
    """All broker tables plus derived queries used by policies."""

    def __init__(self, first_jobid: int = 1, jobid_space: range = ALL_JOBIDS) -> None:
        self.machines: Dict[str, MachineRecord] = {}
        self.jobs: Dict[int, JobRecord] = {}
        self.pending: List[PendingRequest] = _PendingQueue(self)
        #: Next jobid to assign.  A restarted broker seeds this past every
        #: id its predecessor could have issued, so resumed sessions (which
        #: keep their original jobid, see :meth:`adopt_job`) never collide
        #: with fresh submissions.
        self._next_jobid = first_jobid
        #: The jobids this broker issues; any other is another broker's.
        self.jobid_space = jobid_space
        #: Machine records examined by eligibility/deny queries (coarse
        #: telemetry; the bench derives "policy scans per grant" from it).
        self.machines_scanned: int = 0
        #: Attached :class:`~repro.broker.journal.BrokerJournal`, if the
        #: broker runs durable; ``None`` keeps every mutation hook inert.
        self.journal: Optional[Any] = None

        # -- incremental indexes (written only by _refile) ------------------
        #: host -> insertion rank, for seed-identical iteration order.  Ranks
        #: come from a counter, so a machine re-added after a forget ranks
        #: after every machine already in the table, as it iterates.
        self._machine_rank: Dict[str, int] = {}
        self._ranks = itertools.count()
        #: platform -> {host: record} over *reported* machines (deny checks).
        self._reported_by_platform: Dict[str, Dict[str, MachineRecord]] = {}
        #: platform -> {host: record} over reported, console-free machines.
        self._usable_by_platform: Dict[str, Dict[str, MachineRecord]] = {}
        #: platform -> {host: record} over usable machines with no allocation.
        self._idle_by_platform: Dict[str, Dict[str, MachineRecord]] = {}
        #: platform -> heap of (kind != public, cpu_load, host) mirroring
        #: ``_idle_by_platform`` with lazy deletion: entries are pushed when a
        #: machine enters the idle set (or its key fields change while idle)
        #: and validated against the live record on peek, so
        #: :meth:`best_idle` finds the policy's grant choice in O(log n)
        #: instead of sorting the whole idle partition per decision.
        self._idle_heap: Dict[str, List[Tuple[bool, int, str]]] = {}
        #: jobid -> {host: allocation}.
        self._allocations_by_jobid: Dict[int, Dict[str, Allocation]] = {}
        #: Machines currently holding any allocation (lease sweeper's scan set).
        self._leased: Dict[str, MachineRecord] = {}
        #: Machines heard from at least once and not declared dead (liveness
        #: sweeper's scan set).
        self._tracked: Dict[str, MachineRecord] = {}
        #: (symbolic, platform) -> bool; a pure function, never invalidated.
        self._symbolic_hits: Dict[Tuple[str, str], bool] = {}
        #: Bumped whenever the matching-relevant capability universe changes
        #: (membership of the reported set, or any reported machine's view
        #: field).  Version-stamps the unsatisfiability memo in core.
        self.capability_version: int = 0

        # -- pending-order / dirty bookkeeping ------------------------------
        self._order_cache: Optional[List[PendingRequest]] = None
        self._all_pending_dirty: bool = True
        self._dirty_list: List[PendingRequest] = []

    # -- index maintenance -------------------------------------------------

    def _machine_field_changed(
        self, record: MachineRecord, name: str, old: Any, new: Any
    ) -> None:
        """Observe one record-field change: refile the record if the field
        decides index membership, then apply the field's capability bump and
        dirty marks.

        Dirty discipline: the scheduler's correctness invariant is that a
        *clean* pending request's decision is always "wait", so any change
        that could turn a wait into a grant or preemption must mark the
        requests it could affect.  RSL clauses match arbitrary view fields
        (``(cpu_load<2)`` is legal), so every view-field change on a machine
        that is usable *after* the change marks its platform's requests;
        changes that only shrink the candidate universe (console occupied,
        report lost) mark nothing — removing options never makes a waiting
        request actionable."""
        if self.journal is not None and name != "allocation":
            # Allocation transitions are journalled as explicit ops by the
            # mutators; everything else coalesces into the machine's dirty
            # durable view, written at the next flush.
            self.journal.note_machine(record)
        if name in ("last_report", "last_seen") and (old >= 0.0) == (new >= 0.0):
            return  # a clock move without a sign flip changes no membership
        if name in _MEMBERSHIP_FIELDS:
            self._refile(
                record.host,
                record,
                old if name == "platform" else record.platform,
                old if name == "allocation" else record.allocation,
            )
        if name == "allocation":
            # Holding counts changed, so both the elastic service order and
            # every pending decision (idle sets, victim richness, requester
            # thresholds) may have: re-sort lazily and re-evaluate
            # everything.  Allocation flips happen at churn rate, not
            # heartbeat rate, so the conservative mark-all costs one flag
            # write.
            self._order_cache = None
            self._all_pending_dirty = True
            return
        if name in ("last_seen", "dead"):
            return
        self.capability_version += 1
        if name == "last_report":
            if new >= 0.0:
                self.mark_pending_dirty_for_platform(record.platform)
            return
        if name in ("kind", "cpu_load"):
            # Idle-heap key fields changed in place: refresh the entry of a
            # machine currently in the idle partition.
            bucket = self._idle_by_platform.get(record.platform)
            if bucket is not None and record.host in bucket:
                self._push_idle(record)
        if record.reported and not record.console_active:
            self.mark_pending_dirty_for_platform(record.platform)

    def _refile(
        self,
        host: str,
        record: Optional[MachineRecord],
        was_platform: str,
        was_allocation: Optional[Allocation],
    ) -> None:
        """The one writer of the six membership indexes: make the reported /
        usable / idle buckets, ``_allocations_by_jobid``, ``_leased`` and
        ``_tracked`` agree with ``record``'s current fields (``record=None``:
        the machine is forgotten).  ``was_platform`` and ``was_allocation``
        locate what was filed under the previous values.

        Membership that does not change keeps its dict position (the
        sweepers scan ``_tracked`` and ``_leased`` in join order), and only
        a machine *entering* a platform's idle bucket gets an idle-heap
        entry."""
        if record is None:
            platform, allocation = was_platform, None
            reported = usable = idle = tracked = False
        else:
            platform, allocation = record.platform, record.allocation
            reported = record.last_report >= 0.0
            usable = reported and not record.console_active
            idle = usable and allocation is None
            tracked = record.last_seen >= 0.0 and not record.dead
        entered = False
        for buckets, member in (
            (self._reported_by_platform, reported),
            (self._usable_by_platform, usable),
            (self._idle_by_platform, idle),
        ):
            if was_platform != platform:
                bucket = buckets.get(was_platform)
                if bucket is not None:
                    bucket.pop(host, None)
            if member:
                bucket = buckets.setdefault(platform, {})
                entered = host not in bucket
                bucket[host] = record
            else:
                bucket = buckets.get(platform)
                if bucket is not None:
                    bucket.pop(host, None)
        if idle and entered:  # the loop's last pass was the idle bucket
            self._push_idle(record)
        if was_allocation is not None and was_allocation is not allocation:
            held = self._allocations_by_jobid.get(was_allocation.jobid)
            if held is not None:
                held.pop(host, None)
                if not held:
                    del self._allocations_by_jobid[was_allocation.jobid]
        if allocation is not None:
            self._allocations_by_jobid.setdefault(allocation.jobid, {})[
                host
            ] = allocation
            self._leased[host] = record
        else:
            self._leased.pop(host, None)
        if tracked:
            self._tracked[host] = record
        else:
            self._tracked.pop(host, None)

    def _push_idle(self, record: MachineRecord) -> None:
        """Mirror an idle-set entry (or key change) into the idle heap."""
        heapq.heappush(
            self._idle_heap.setdefault(record.platform, []),
            (record.kind != "public", record.cpu_load, record.host),
        )

    def _peek_idle(
        self, platform: str, bucket: Dict[str, MachineRecord]
    ) -> Optional[Tuple[bool, int, str]]:
        """The heap's smallest *live* entry for ``platform``, dropping stale
        ones (machine left the idle set, or its key fields moved on — the
        refreshed entry is elsewhere in the heap).  Duplicate live entries
        are harmless: validation is against the current record."""
        heap = self._idle_heap.get(platform)
        while heap:
            entry = heap[0]
            record = bucket.get(entry[2])
            if (
                record is None
                or (record.kind != "public") != entry[0]
                or record.cpu_load != entry[1]
            ):
                heapq.heappop(heap)
                self.machines_scanned += 1
                continue
            return entry
        return None

    def _symbolic_platform_match(self, symbolic: str, platform: str) -> bool:
        """Memoized ``symbolic_matches`` on the platform alone (it reads
        nothing else from the snapshot, so the memo is exact and permanent)."""
        key = (symbolic, platform)
        hit = self._symbolic_hits.get(key)
        if hit is None:
            hit = symbolic_matches(symbolic, {"platform": platform})
            self._symbolic_hits[key] = hit
        return hit

    # -- sweeper scan sets ---------------------------------------------------

    def tracked_records(self) -> List[MachineRecord]:
        """Machines the liveness sweeper must examine: heard from at least
        once and not already declared dead."""
        return list(self._tracked.values())

    def silent(
        self, tracked: List[MachineRecord], now: float, deadline: float
    ) -> Tuple[List[MachineRecord], Optional[float]]:
        """One pass of the liveness sweeper over ``tracked``: the records
        silent for more than ``deadline`` at ``now``, and the earliest
        instant another could be (None while none reports).  A peer's
        machine (DESIGN.md §17) reports to its own broker, which watches
        its liveness, so it is passed over."""
        due = None
        overdue = []
        for record in tracked:
            if record.dead or record.last_seen < 0.0:
                continue  # already handled / never heard from at all
            if record.borrowed_from is not None:
                continue
            if now - record.last_seen > deadline:
                overdue.append(record)
            else:
                candidate = record.last_seen + deadline
                if due is None or candidate < due:
                    due = candidate
        return overdue, due

    def leased_records(self) -> List[MachineRecord]:
        """Machines the lease sweeper must examine: holding any allocation."""
        return list(self._leased.values())

    # -- dirty-driven scheduling --------------------------------------------

    def mark_all_pending_dirty(self) -> None:
        """Every pending request must be re-evaluated on the next pass."""
        self._all_pending_dirty = True

    def mark_job_requests_dirty(self, jobid: int) -> None:
        """Re-evaluate every pending request of ``jobid`` (e.g. its session
        just resumed, so grants are deliverable again)."""
        for request in self.pending:
            if request.jobid == jobid and not request.dirty:
                request.dirty = True
                self._dirty_list.append(request)

    def mark_pending_dirty_for_platform(self, platform: str) -> None:
        """Re-evaluate pending requests whose symbolic name could match a
        machine of ``platform`` (one just became grantable or changed)."""
        for request in self.pending:
            if request.dirty:
                continue
            if self._symbolic_platform_match(request.symbolic, platform):
                request.dirty = True
                self._dirty_list.append(request)

    def take_dirty_pending(self) -> List[PendingRequest]:
        """The requests to evaluate this pass, in service order, clearing
        their dirty flags.  With the all-dirty flag set this is exactly the
        seed's full pass; otherwise only flagged requests are returned."""
        if self._all_pending_dirty:
            self._all_pending_dirty = False
            self._dirty_list = []
            order = list(self.pending_sorted())
            for request in order:
                request.dirty = False
            return order
        if not self._dirty_list:
            return []
        flagged = {id(r) for r in self._dirty_list if r.dirty and r.queued}
        self._dirty_list = []
        if not flagged:
            return []
        order = [r for r in self.pending_sorted() if id(r) in flagged]
        for request in order:
            request.dirty = False
        return order

    # -- machines ---------------------------------------------------------

    def add_machine(self, host: str) -> MachineRecord:
        """Get-or-create the record for ``host``."""
        record = self.machines.get(host)
        if record is None:
            record = MachineRecord(host=host)
            record._state = weakref.ref(self)
            self.machines[host] = record
            self._machine_rank[host] = next(self._ranks)
            self._refile(host, record, record.platform, None)
        return record

    def all_reported(self, hosts) -> bool:
        """Whether every machine in ``hosts`` has a current daemon report
        (the knowledge-completeness guard behind denial decisions)."""
        # Every known machine is a managed one (records are only created for
        # the managed set), so the whole table answers for any hosts subset.
        return self.reported_count() == len(self.machines)

    def machine(self, host: str) -> MachineRecord:
        """The record for ``host`` (KeyError if unknown)."""
        return self.machines[host]

    # -- jobs --------------------------------------------------------------

    def register_job(
        self, user: str, home_host: str, rsl_text: str, argv: List[str],
        adaptive_hint: bool = False,
    ) -> JobRecord:
        """Create a JobRecord for a submission, parsing its RSL."""
        return self.adopt_job(
            self._next_jobid, user, home_host, rsl_text, argv, adaptive_hint
        )

    def adopt_job(
        self, jobid: int, user: str, home_host: str, rsl_text: str,
        argv: List[str], adaptive_hint: bool = False,
    ) -> JobRecord:
        """Re-create the record of a job that predates this broker state.

        Used when an app resumes a session registered with a previous broker
        incarnation: the job keeps its original ``jobid`` (its subapps carry
        it in their argv, and daemon lease inventories key on it), and the
        jobid counter is bumped past it defensively.  A fresh submission
        (:meth:`register_job`) is the same construction at the counter."""
        rsl = parse_rsl(rsl_text or "")
        job = JobRecord(
            jobid=jobid,
            user=user,
            home_host=home_host,
            rsl=rsl,
            argv=list(argv),
            adaptive=rsl.adaptive or adaptive_hint,
        )
        self._next_jobid = max(self._next_jobid, jobid + 1)
        self.jobs[jobid] = job
        if self.journal is not None:
            self.journal.record(
                {
                    "op": "job",
                    "jobid": jobid,
                    "user": user,
                    "home": home_host,
                    "rsl": rsl.source,
                    "argv": list(job.argv),
                    "adaptive": job.adaptive,
                }
            )
        return job

    def job(self, jobid: int) -> JobRecord:
        """The record for ``jobid`` (KeyError if unknown)."""
        return self.jobs[jobid]

    # -- allocations -------------------------------------------------------

    def allocations_of(self, jobid: int) -> List[Allocation]:
        """Every allocation currently held by ``jobid``.

        Indexed O(holdings); returned in the seed's machine-table order so
        downstream message sequences stay byte-identical."""
        held = self._allocations_by_jobid.get(jobid)
        if not held:
            return []
        rank = self._machine_rank
        return [
            held[host] for host in sorted(held, key=lambda h: rank.get(h, -1))
        ]

    def holding_count(self, jobid: int) -> int:
        """How many machines ``jobid`` holds right now (O(1))."""
        return len(self._allocations_by_jobid.get(jobid, ()))

    def allocate(
        self,
        host: str,
        jobid: int,
        firm: bool,
        now: float,
        lease_expires_at: float = float("inf"),
    ) -> Allocation:
        """Bind ``host`` to ``jobid`` (the machine must be free): the grant
        transition, :meth:`Allocation.grant`."""
        return Allocation.grant(
            self.machines[host], jobid, firm, now, lease_expires_at, self.journal
        )

    def adopt_allocation(
        self, host: str, jobid: int, now: float, lease_expires_at: float
    ) -> Optional[Allocation]:
        """Bind ``host`` to ``jobid`` outside a grant — a pre-crash holding
        a daemon inventory or a resuming app testifies to — so that every
        allocation names a job this state holds (DESIGN.md §11).

        Refused (None; the caller logs the conflict): an unknown host, a
        host held by another jobid, and, for a free host, a finished job
        and a jobid outside :attr:`jobid_space`.  An unknown jobid of the
        own space gets a journaled placeholder job that the app's
        ``resume`` fills in (only an inventory inside the recovery window
        names one).  The rest is :meth:`Allocation.adopt`: a repeat only
        refreshes the lease, so adoption is idempotent and
        order-independent."""
        record = self.machines.get(host)
        if record is None:
            return None
        if record.allocation is None:
            job = self.jobs.get(jobid)
            if jobid not in self.jobid_space if job is None else job.done:
                return None
            if job is None:
                self.adopt_job(jobid, user="", home_host="", rsl_text="", argv=[])
        elif record.allocation.jobid != jobid:
            return None
        return Allocation.adopt(record, jobid, now, lease_expires_at, self.journal)

    def release(self, host: str) -> Optional[Allocation]:
        """Unbind ``host`` (:meth:`Allocation.release`); returns the
        allocation it held, if any."""
        record = self.machines[host]
        allocation = record.allocation
        if allocation is not None:
            allocation.release(record, self.journal)
        return allocation

    # -- queries used by policies --------------------------------------------

    def _request_filter_ok(
        self, record: MachineRecord, job: JobRecord, request: PendingRequest
    ) -> bool:
        """Per-request eligibility filters not captured by the index
        partition (home host, full RSL constraints, private/adaptive)."""
        if record.borrowed_from is not None:
            # A peer's machine (DESIGN.md §17) serves exactly the request it
            # came for and never joins this broker's candidate pool.
            return False
        if record.host == job.home_host:
            # The job already runs on its home machine; growing means
            # acquiring *another* one (and PVM-style systems cannot
            # re-add their own master host anyway).
            return False
        if not job.rsl.matches_machine(record.snapshot_view()):
            return False
        if record.kind == "private" and not job.adaptive:
            return False  # paper policy: private machines only to adaptive jobs
        return True

    def _matching_buckets(
        self,
        buckets: Dict[str, Dict[str, MachineRecord]],
        symbolic: str,
    ) -> List[Tuple[str, Dict[str, MachineRecord]]]:
        """The (platform, bucket) pairs whose machines satisfy ``symbolic``."""
        return [
            (platform, bucket)
            for platform, bucket in buckets.items()
            if bucket and self._symbolic_platform_match(symbolic, platform)
        ]

    def idle_machines(self, request: PendingRequest) -> List[MachineRecord]:
        """Eligible machines with no current allocation, public first.

        Indexed: only the idle partition is examined, so a fully-allocated
        cluster answers in O(1) however large it is."""
        job = self.jobs[request.jobid]
        free = []
        for _, bucket in self._matching_buckets(
            self._idle_by_platform, request.symbolic
        ):
            self.machines_scanned += len(bucket)
            for record in bucket.values():
                if self._request_filter_ok(record, job, request):
                    free.append(record)
        free.sort(key=lambda m: (m.kind != "public", m.cpu_load, m.host))
        return free

    def best_idle(self, request: PendingRequest) -> Optional[MachineRecord]:
        """The machine :meth:`idle_machines` would rank first, found without
        scanning: walk the matching platforms' idle heaps in key order —
        (public first, least loaded, host) — and return the first machine
        passing the per-request filters.  O(log n) per grant where the list
        query is O(idle); a full-cluster expansion is O(n log n) total
        instead of O(n²).  Entries popped past (request-filtered, e.g. the
        job's home host) are pushed back, so the heaps stay complete."""
        job = self.jobs[request.jobid]
        return self._best_idle_for(job, request)

    def _best_idle_for(
        self, job: JobRecord, request: PendingRequest
    ) -> Optional[MachineRecord]:
        """Heap-walk behind :meth:`best_idle`, for a ``job`` that may have
        no entry in :attr:`jobs` (a peer's, DESIGN.md §17)."""
        pairs = self._matching_buckets(self._idle_by_platform, request.symbolic)
        if not pairs:
            return None
        tops: Dict[str, Tuple[bool, int, str]] = {}
        buckets = dict(pairs)
        for platform, bucket in pairs:
            entry = self._peek_idle(platform, bucket)
            if entry is not None:
                tops[platform] = entry
        popped: List[Tuple[str, Tuple[bool, int, str]]] = []
        result = None
        while tops:
            platform = min(tops, key=tops.get)
            entry = tops[platform]
            record = buckets[platform][entry[2]]
            self.machines_scanned += 1
            if self._request_filter_ok(record, job, request):
                result = record
                break
            # Filtered for this request only (home host, RSL, private):
            # set it aside and look at the platform's next-best machine.
            heapq.heappop(self._idle_heap[platform])
            popped.append((platform, entry))
            entry = self._peek_idle(platform, buckets[platform])
            if entry is None:
                del tops[platform]
            else:
                tops[platform] = entry
        for platform, entry in popped:
            heapq.heappush(self._idle_heap[platform], entry)
        return result

    def forget_machine(self, host: str) -> None:
        """Remove ``host``'s record entirely: the inverse of
        :meth:`add_machine`, journalled as ``forget``.

        Detaches the record from the hook, then refiles it as gone; a stale
        idle-heap entry is dropped by the heap's usual lazy deletion."""
        record = self.machines.pop(host, None)
        if record is None:
            return
        record._state = None
        self._machine_rank.pop(host, None)
        self._refile(host, None, record.platform, record.allocation)
        self.capability_version += 1
        if self.journal is not None:
            self.journal.note_forget(host)

    def held_eligible(self, request: PendingRequest) -> List[MachineRecord]:
        """Eligible machines that currently hold an allocation — the victim
        universe for preemption decisions."""
        job = self.jobs[request.jobid]
        result = []
        for _, bucket in self._matching_buckets(
            self._usable_by_platform, request.symbolic
        ):
            self.machines_scanned += len(bucket)
            for record in bucket.values():
                if record.allocation is None:
                    continue
                if self._request_filter_ok(record, job, request):
                    result.append(record)
        return result

    def satisfiable_somewhere(self, symbolic: str, job: JobRecord) -> bool:
        """Could any *reported* machine ever satisfy (symbolic, job RSL)?

        The best-case feasibility check behind denial decisions: ignores
        console activity and allocation state, exactly like the seed's scan
        in ``_deny_if_unsatisfiable`` (core memoizes the result against
        :attr:`capability_version`)."""
        for _, bucket in self._matching_buckets(
            self._reported_by_platform, symbolic
        ):
            self.machines_scanned += len(bucket)
            for record in bucket.values():
                if record.host == job.home_host:
                    continue
                if record.borrowed_from is not None:
                    continue
                if job.rsl.matches_machine(record.snapshot_view()):
                    return True
        return False

    def pending_sorted(self) -> List[PendingRequest]:
        """Service order: firm requests FIFO first, then elastic requests
        from the poorest job first (even partition among elastic jobs).

        The order is cached and only rebuilt when queue membership or a
        holding count changes (Python's stable sort keeps arrival-order
        ties exactly as the seed did)."""
        order = self._order_cache
        if order is None:
            firm = []
            elastic = []
            for request in self.pending:
                (firm if request.firm else elastic).append(request)
            firm.sort(key=lambda r: (r.arrived_at, r.reqid))
            elastic.sort(
                key=lambda r: (self.holding_count(r.jobid), r.arrived_at, r.reqid)
            )
            order = firm + elastic
            self._order_cache = order
        return order

    def dirty_pending_count(self) -> int:
        """How many pending requests are flagged for re-evaluation (the
        live ``stats`` view of scheduler backlog)."""
        if self._all_pending_dirty:
            return len(self.pending)
        return sum(1 for r in self.pending if r.dirty)

    def reported_count(self) -> int:
        """How many managed machines currently have a daemon report."""
        return sum(map(len, self._reported_by_platform.values()))

    def drop_job_requests(self, jobid: int) -> None:
        """Forget every pending request of ``jobid`` (job finished)."""
        for request in [r for r in self.pending if r.jobid == jobid]:
            self.pending.remove(request)

    def summary(self) -> Dict[str, Any]:
        """Human-readable status (the ``rbstat`` view)."""
        return {
            "machines": {
                h: {
                    "allocated_to": m.allocation.jobid if m.allocation else None,
                    "state": m.allocation.state.value if m.allocation else "free",
                    "console_active": m.console_active,
                    "load": m.cpu_load,
                }
                for h, m in sorted(self.machines.items())
            },
            "jobs": {
                j: {
                    "user": job.user,
                    "adaptive": job.adaptive,
                    "module": job.module,
                    "holdings": self.holding_count(j),
                    "done": job.done,
                }
                for j, job in sorted(self.jobs.items())
            },
            "pending": len(self.pending),
        }
