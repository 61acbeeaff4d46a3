"""The broker's records: one machine, one job, one allocation, one request.

Plain dataclasses that :class:`~repro.broker.state.BrokerState` files into
its tables and indexes, with two pieces of behaviour:

* :class:`Allocation` owns its lifecycle (DESIGN.md §11, "Allocation
  lifecycle").  Each transition is one of its methods — grant, reclaim,
  renew, confirm-recovered, adopt and release, and the one a peer
  subsystem drives (DESIGN.md §17) — and each sets the allocation's
  fields and writes its journal op to the journal it is handed.  Replay
  hands ``None``, so the broker and journal replay run the same
  transitions, and no other
  module assigns a lifecycle field (``tests/broker/test_lifecycle.py``
  checks that).  :meth:`Allocation.deadline` is the lease sweeper's one
  answer for when a lease is due.
* The :class:`MachineRecord` ``__setattr__`` hook reports every change of
  a tracked field to the owning state, so code (and tests) that mutate
  record fields directly — ``record.console_active = True`` — keep its
  indexes fresh.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.rsl import RSLRequest

if TYPE_CHECKING:
    from repro.broker.state import BrokerState


class AllocationState(enum.Enum):
    """Lifecycle of one machine-to-job binding."""

    ACTIVE = "active"  # granted; the job may occupy it
    RECLAIMING = "reclaiming"  # revoke sent, waiting for release
    MIGRATING = "migrating"  # a peer subsystem's (DESIGN.md §17)


#: The states the broker core drives.  An allocation in any other state is
#: a peer subsystem's: the core hands it to its peers (DESIGN.md §11).
CORE_STATES = frozenset({AllocationState.ACTIVE, AllocationState.RECLAIMING})


@dataclass
class Allocation:
    """One machine currently bound to one job."""

    host: str
    jobid: int
    firm: bool
    state: AllocationState = AllocationState.ACTIVE
    granted_at: float = 0.0
    #: Every grant is a lease: the daemon on ``host`` renews it on each
    #: heartbeat while a subapp of ``jobid`` lives there; past this instant
    #: the lease sweeper reclaims the machine even if the holder's app
    #: connection never signalled loss.  ``inf`` = unleased (hand-built
    #: states, tests).
    lease_expires_at: float = float("inf")
    #: When RECLAIMING: the pending request that will receive this machine.
    claimed_by: Optional["PendingRequest"] = None
    #: Instant the reclaim began (revoke sent); -1.0 while ACTIVE.  No
    #: decision reads it, but the journal keeps it: dropping the ``since``
    #: field would shorten the WAL's ``reclaim`` records and so move which
    #: record a torn journal tail cuts.
    reclaiming_since: float = -1.0
    #: True while this allocation was rebuilt from the journal and no live
    #: daemon inventory has confirmed it yet.  Confirmation (the jobid in
    #: the daemon's lease list) clears it; a disagreeing inventory resolves
    #: toward the live side and counts a ``recovery.conflicts``.
    recovered: bool = field(default=False, compare=False)
    #: When MIGRATING: the peer broker the machine is held for (DESIGN.md
    #: §17); ``None`` otherwise.  The machine stays leased here (daemon
    #: heartbeats renew against the holder's jobid) but out of this
    #: broker's scheduling until the allocation is released.
    loaned_to: Optional[int] = field(default=None, compare=False)

    # -- the lifecycle: each transition writes its op to ``journal``, which
    # is None during replay (DESIGN.md §11, "Allocation lifecycle") --------

    @classmethod
    def grant(cls, record: MachineRecord, jobid: int, firm: bool, now: float,
              expires: float, journal: Any) -> Allocation:
        """Bind ``record``'s free machine to ``jobid``, leased until
        ``expires``.  Journals ``alloc``.  The caller orders the grant's
        other ops around it (a torn WAL tail is cut by bytes): a request's
        grant is ``pend-`` then ``alloc``, and a peer subsystem orders the
        grants it makes in its own module (DESIGN.md §17)."""
        if record.allocation is not None:
            raise RuntimeError(
                f"{record.host} already allocated to job {record.allocation.jobid}"
            )
        allocation = cls(
            record.host, jobid, firm, granted_at=now, lease_expires_at=expires
        )
        record.allocation = allocation
        if journal is not None:
            journal.record(
                {
                    "op": "alloc",
                    "host": record.host,
                    "jobid": jobid,
                    "firm": firm,
                    "granted": now,
                    "expires": expires,
                }
            )
        return allocation

    def reclaim(self, now: float, claim: Optional[PendingRequest],
                journal: Any) -> None:
        """ACTIVE → RECLAIMING: revoked at ``now`` for the request ``claim``
        (reserved on this host), or for nobody.  Journals ``reclaim``."""
        self.state = AllocationState.RECLAIMING
        self.reclaiming_since = now
        self.claimed_by = claim
        if claim is not None:
            claim.reserved_host = self.host
        if journal is not None:
            journal.record(
                {
                    "op": "reclaim",
                    "host": self.host,
                    "since": now,
                    "claim": None if claim is None else [claim.jobid, claim.reqid],
                }
            )

    def renew(self, expires: float, journal: Any) -> None:
        """Move the lease to ``expires``, confirmed (any state: a graceful
        shutdown still renews).  Notes ``leases``."""
        self.lease_expires_at = expires
        self.recovered = False
        if journal is not None:
            journal.note_lease(self.host, expires)

    def confirm_recovered(self, until: float, confirmed: bool) -> None:
        """Extend the lease to at least ``until`` and set whether a live
        inventory confirmed this journal-rebuilt allocation: False is every
        recovery's re-stamp, True an inventory's agreement.  Quirk: no
        ``leases`` note, so the agreement's extension is durable only once
        a renewal notes the host (the re-stamp is compacted right away)."""
        self.recovered = not confirmed
        self.lease_expires_at = max(self.lease_expires_at, until)

    @classmethod
    def adopt(cls, record: MachineRecord, jobid: int, now: float, expires: float,
              journal: Any) -> Allocation:
        """Bind ``record``'s machine to ``jobid`` on a daemon inventory's or
        a resuming app's testimony (``BrokerState.adopt_allocation``
        decides whether).  A repeat refreshes the holding: its lease moves
        to at least ``expires`` with a ``leases`` note, unlike
        :meth:`confirm_recovered`.  A free machine is granted ``firm=False``
        whatever the job's RSL: ROADMAP item 2(b) lands here."""
        held = record.allocation
        if held is None:
            return cls.grant(record, jobid, False, now, expires, journal)
        held.renew(max(held.lease_expires_at, expires), journal)
        return held

    def loan(self, to: Optional[int], journal: Any) -> None:
        """The peer subsystem's transition (DESIGN.md §17), right after
        the grant: MIGRATING, held for peer broker ``to`` and out of this
        broker's scheduling until released.  Journals ``"loan"``."""
        self.state = AllocationState.MIGRATING
        self.loaned_to = to
        if journal is not None:
            journal.record(
                {"op": "loan", "host": self.host, "jobid": self.jobid, "to": to}
            )

    def release(self, record: MachineRecord, journal: Any) -> None:
        """Unbind ``record``'s machine and un-reserve the claim of a reclaim
        in flight.  Journals ``release``."""
        record.allocation = None
        if self.claimed_by is not None:
            self.claimed_by.reserved_host = None
        if journal is not None:
            journal.record({"op": "release", "host": self.host})

    def deadline(self, now: float, jobs: Dict[int, JobRecord]) -> Optional[float]:
        """The lease sweeper's one answer: None once overdue (the lease ran
        out with nobody to renew it), else when to look again (``inf``:
        unleased).  A RECLAIMING allocation is overdue only when its victim
        has no session: nobody will ever send the release."""
        expires = self.lease_expires_at
        if expires > now or (
            self.state is AllocationState.RECLAIMING
            # ROADMAP 1(a): the victim is attached, so not overdue, yet the
            # deadline is the passed lease: the sweeper re-arms 1 µs out.
            and jobs[self.jobid].conn is not None
        ):
            return expires
        return None

    def to_doc(self) -> Dict[str, Any]:
        """The durable document (snapshot order)."""
        claim = self.claimed_by
        return {
            "host": self.host,
            "jobid": self.jobid,
            "firm": self.firm,
            "astate": self.state.value,
            "granted": self.granted_at,
            "expires": self.lease_expires_at,
            "since": self.reclaiming_since,
            "claim": None if claim is None else [claim.jobid, claim.reqid],
            "loan": self.loaned_to,
        }

    @classmethod
    def from_doc(cls, record: MachineRecord, doc: Dict[str, Any],
                 claim: Optional[PendingRequest] = None) -> Allocation:
        """Rebuild on ``record`` from :meth:`to_doc`'s document or an
        ``alloc`` op, through the transitions; ``claim`` is the request the
        document's ``claim`` names."""
        allocation = cls.grant(
            record,
            int(doc["jobid"]),
            bool(doc["firm"]),
            float(doc["granted"]),
            float(doc["expires"]),
            None,
        )
        if doc.get("astate") == AllocationState.RECLAIMING.value:
            allocation.reclaim(float(doc.get("since", -1.0)), claim, None)
        elif doc.get("astate") == AllocationState.MIGRATING.value:
            allocation.loan(doc.get("loan"), None)
        return allocation


#: MachineRecord fields that feed the RSL / symbolic matching view (and so
#: invalidate the cached ``snapshot_view`` dict when they change).
_VIEW_FIELDS = frozenset(
    {"host", "platform", "kind", "owner", "console_active", "cpu_load"}
)

#: MachineRecord fields whose changes the owning BrokerState must observe to
#: keep its indexes fresh.
_TRACKED_FIELDS = _VIEW_FIELDS | {"last_report", "last_seen", "dead", "allocation"}

_UNSET = object()


@dataclass
class MachineRecord:
    """What the broker knows about one machine (from daemon reports)."""

    host: str
    platform: str = ""
    kind: str = "public"
    owner: Optional[str] = None
    console_active: bool = False
    cpu_load: int = 0
    n_processes: int = 0
    last_report: float = -1.0
    #: Last instant *any* daemon report arrived — unlike ``last_report`` it
    #: is never reset on connection loss, so the liveness sweeper can measure
    #: true silence.  -1.0 until the machine has reported at least once.
    last_seen: float = -1.0
    #: Set by the liveness sweeper once the machine has been silent past the
    #: deadline; cleared by the next daemon report (a rejoin).
    dead: bool = False
    allocation: Optional[Allocation] = None
    #: Lease inventory (jobids) from the machine's last *full* daemon report.
    #: Delta heartbeats (beacons) renew against this list — a lease change on
    #: the machine always changes its process table, which forces the daemon
    #: to send a full report, so the stored list is never stale.
    leases: Tuple[int, ...] = field(default=(), compare=False)
    #: The peer broker whose machine this record is (DESIGN.md §17), or
    #: ``None`` for a machine this broker owns.  Deliberately *not* a
    #: tracked field: such a record is created fully formed (allocated
    #: before it could ever enter an idle bucket) and is excluded from
    #: every eligibility query, so no index needs to observe it.
    borrowed_from: Optional[int] = field(default=None, compare=False)
    #: Cached :meth:`snapshot_view` dict; invalidated whenever a view field
    #: changes (so eligibility checks stop rebuilding it per candidate).
    _view: Optional[Dict[str, Any]] = field(default=None, repr=False, compare=False)
    #: Weak reference to the owning :class:`BrokerState`, for index
    #: maintenance: the state holds its records, so a strong one would be a
    #: cycle.  ``None`` for free-standing records (hand-built tests).
    _state: Optional["weakref.ref[BrokerState]"] = field(
        default=None, repr=False, compare=False
    )

    def __setattr__(self, name: str, value: Any) -> None:
        if name in _TRACKED_FIELDS:
            old = getattr(self, name, _UNSET)
            object.__setattr__(self, name, value)
            if old is not _UNSET and old != value:
                if name in _VIEW_FIELDS:
                    object.__setattr__(self, "_view", None)
                owner = getattr(self, "_state", None)
                state = owner() if owner is not None else None
                if state is not None:
                    state._machine_field_changed(self, name, old, value)
        else:
            object.__setattr__(self, name, value)

    @property
    def reported(self) -> bool:
        """True once at least one daemon report has arrived."""
        return self.last_report >= 0.0

    @property
    def allocated(self) -> bool:
        return self.allocation is not None

    def snapshot_view(self) -> Dict[str, Any]:
        """Dict view used for RSL / symbolic-name matching (cached)."""
        view = self._view
        if view is None:
            view = {
                "host": self.host,
                "platform": self.platform,
                "kind": self.kind,
                "owner": self.owner,
                "console_active": self.console_active,
                "cpu_load": self.cpu_load,
            }
            object.__setattr__(self, "_view", view)
        return view

    def update(self, snapshot: Dict[str, Any]) -> None:
        """Fold one full daemon report into this record.

        Values are compared before assignment, so a report that changes
        nothing monitorable costs a handful of comparisons and never runs
        the index hook, invalidates the cached view, or bumps the
        capability version."""
        platform = snapshot.get("platform", self.platform)
        if platform != self.platform:
            self.platform = platform
        kind = snapshot.get("kind", self.kind)
        if kind != self.kind:
            self.kind = kind
        owner = snapshot.get("owner", self.owner)
        if owner != self.owner:
            self.owner = owner
        console_active = bool(snapshot.get("console_active", False))
        if console_active != self.console_active:
            self.console_active = console_active
        cpu_load = int(snapshot.get("cpu_load", 0))
        if cpu_load != self.cpu_load:
            self.cpu_load = cpu_load
        self.n_processes = int(snapshot.get("n_processes", 0))
        self.touch(float(snapshot.get("time", 0.0)))
        if self.dead:
            self.dead = False

    def touch(self, now: float) -> None:
        """Advance the liveness clocks (every report flavour does this).

        The common case — an already-reported record — bypasses the
        ``__setattr__`` hook: a clock move without a sign flip affects no
        index.  A record whose report was reset (connection loss, marked
        dead) takes the hooked path so the reported-set indexes refresh."""
        if self.last_report >= 0.0:
            object.__setattr__(self, "last_report", now)
        else:
            self.last_report = now
        if self.last_seen >= 0.0:
            object.__setattr__(self, "last_seen", now)
        else:
            self.last_seen = now


@dataclass
class JobRecord:
    """One submitted job."""

    jobid: int
    user: str
    home_host: str
    rsl: RSLRequest
    argv: List[str]
    adaptive: bool
    conn: Any = None  # broker<->app connection
    done: bool = False

    @property
    def module(self) -> Optional[str]:
        return self.rsl.module

    @property
    def placeholder(self) -> bool:
        """Held for an adopted lease until its app resumes: no home host."""
        return not self.home_host


@dataclass
class PendingRequest:
    """A machine request not yet satisfied."""

    reqid: int
    jobid: int
    symbolic: str
    firm: bool
    arrived_at: float
    #: Set once a machine has been picked and is being reclaimed for us.
    reserved_host: Optional[str] = None
    #: True while the request's candidate set may have changed since its
    #: last policy evaluation; new requests start dirty.  ``compare=False``
    #: keeps the seed's equality semantics (queue membership tests).
    dirty: bool = field(default=True, compare=False)
    #: Maintained by the state's pending queue; True while queued.
    queued: bool = field(default=False, compare=False)
