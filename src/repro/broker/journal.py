"""Write-ahead journal and compacting snapshots for :class:`BrokerState`.

PR-4 taught a restarted broker to rebuild its tables from daemon
re-registration and app session resumption — correct, but blind for a whole
``broker_recovery_window`` and dependent on every periphery process
surviving to re-report.  This module makes the broker's ground truth
*durable*: every state mutation is appended to a checksummed write-ahead
log on the broker machine's simulated filesystem, so ``restart_broker()``
can recover jobs, leases, the pending queue, and the epoch from disk in
near-zero time and treat re-registration as a cross-check rather than the
sole source of truth (DESIGN.md §14).

Record framing
--------------
The journal is a stream of length-prefixed, CRC-checked records::

    [8-digit decimal payload length][8-hex-digit CRC32][JSON payload]

A record that ends mid-frame is a **torn tail** — the expected signature of
a crash (or an injected :class:`~repro.faults.JournalTornWrite`) — and
replay simply stops before it.  A full-length record whose CRC fails is
**corruption**; nothing after it can be trusted, so replay stops there too
and reconciliation against live daemon inventories covers the difference.

Generations
-----------
Files live under one directory as ``wal.NNNNNN`` / ``snap.NNNNNN`` pairs.
When the current WAL outgrows ``compact_bytes``, the attached state is
serialised into the next generation's snapshot and a fresh WAL is started;
only the last ``keep_generations`` generations are kept, so disk stays
bounded under sustained load.  Recovery loads the newest readable snapshot
(falling back one generation when it is missing or corrupt — generation 0's
snapshot is the implicit empty state) and replays every WAL from there
forward.

Crash model
-----------
All writes go through the per-machine :class:`~repro.os.filesystem
.Filesystem`, which survives process death (and even ``Machine.crash()``),
so fsync points are exactly the ``flush()`` calls — deterministic,
observable, and fault-injectable.  Structural mutations (grants, releases,
job registration, queue changes) are flushed write-through; high-rate noise
(machine view updates, lease renewals) is coalesced into dirty sets and
drained by the broker's periodic flusher thread.  A :class:`~repro.faults
.DiskStall` makes ``flush()`` a no-op for its duration (lag builds, the
health watchdog fires); ops buffered when the broker dies are discarded,
exactly like a page cache.

Shipping
--------
With a warm standby configured, every character that reaches a WAL (flushes
and compaction openers alike) is also accounted to a **ship stream** —
identified by the primary incarnation's epoch, offset in characters — and
retained until the standby acknowledges it, so the ship server can resend
the tail on reconnect.  Appends are whole frames, so acknowledged offsets
are always valid replay cut points (DESIGN.md §16).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broker.state import (
    AllocationState,
    BrokerState,
    MachineRecord,
    PendingRequest,
)

#: Frame header: 8 decimal digits of payload length + 8 hex digits of CRC32.
_HEADER_CHARS = 16

#: The one encoder behind every journal payload (``json.dumps`` with these
#: options builds a fresh ``JSONEncoder`` per call).
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _frame(payload: str) -> str:
    """One framed journal record."""
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{len(payload):08d}{crc:08x}{payload}"


def parse_frames(data: str) -> Tuple[List[str], int, int]:
    """Split a journal file into payloads.

    Returns ``(payloads, torn, corrupt)``: ``torn`` counts an incomplete
    final frame (crash mid-write), ``corrupt`` a full-length frame whose
    header or checksum is wrong.  Either way parsing stops at the first bad
    frame — everything after an unreadable record is untrusted.
    """
    payloads: List[str] = []
    torn = 0
    corrupt = 0
    pos = 0
    end = len(data)
    while pos < end:
        header = data[pos : pos + _HEADER_CHARS]
        if len(header) < _HEADER_CHARS:
            torn += 1
            break
        try:
            length = int(header[:8])
            crc = int(header[8:], 16)
        except ValueError:
            corrupt += 1
            break
        payload = data[pos + _HEADER_CHARS : pos + _HEADER_CHARS + length]
        if len(payload) < length:
            torn += 1
            break
        if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != crc:
            corrupt += 1
            break
        payloads.append(payload)
        pos += _HEADER_CHARS + length
    return payloads, torn, corrupt


def _machine_op(record: MachineRecord) -> Dict[str, Any]:
    """The coalesced durable view of one machine record."""
    return {
        "op": "machine",
        "host": record.host,
        "platform": record.platform,
        "mkind": record.kind,
        "owner": record.owner,
        "console": record.console_active,
        "load": record.cpu_load,
        "nproc": record.n_processes,
        "reported": record.last_report >= 0.0,
        "seen": record.last_seen,
        "dead": record.dead,
        "leases": list(record.leases),
        "borrowed": record.borrowed_from,
    }


def snapshot_state(state: BrokerState) -> Dict[str, Any]:
    """Serialise the durable contract of ``state`` for a snapshot record."""
    allocations = []
    for host in state.machines:
        allocation = state.machines[host].allocation
        if allocation is None:
            continue
        claim = None
        if allocation.claimed_by is not None:
            claim = [allocation.claimed_by.jobid, allocation.claimed_by.reqid]
        allocations.append(
            {
                "host": allocation.host,
                "jobid": allocation.jobid,
                "firm": allocation.firm,
                "astate": allocation.state.value,
                "granted": allocation.granted_at,
                "expires": allocation.lease_expires_at,
                "since": allocation.reclaiming_since,
                "claim": claim,
                "loan": allocation.loaned_to,
            }
        )
    return {
        "next_jobid": state._next_jobid,
        "machines": [_machine_op(r) for r in state.machines.values()],
        "jobs": [
            {
                "jobid": job.jobid,
                "user": job.user,
                "home": job.home_host,
                "rsl": job.rsl.source,
                "argv": list(job.argv),
                "adaptive": job.adaptive,
                "done": job.done,
            }
            for job in state.jobs.values()
        ],
        "pending": [
            {
                "reqid": r.reqid,
                "jobid": r.jobid,
                "symbolic": r.symbolic,
                "firm": r.firm,
                "arrived": r.arrived_at,
                "reserved": r.reserved_host,
            }
            for r in state.pending
        ],
        "allocations": allocations,
    }


def state_fingerprint(state: BrokerState) -> Dict[str, Any]:
    """Canonical projection of the durable contract, for equivalence tests.

    Two states with equal fingerprints agree on everything the journal
    promises to preserve: machines (view, liveness, lease inventory), jobs,
    allocations (including reclaim progress and claims), the pending queue
    in order, and the jobid counter.  Volatile details — connections, index
    internals, exact ``last_report`` instants — are deliberately outside
    the contract.
    """
    return {
        "next_jobid": state._next_jobid,
        "machines": {
            host: _machine_op(record)
            for host, record in state.machines.items()
        },
        "jobs": {
            job.jobid: {
                "user": job.user,
                "home": job.home_host,
                "rsl": job.rsl.source,
                "argv": list(job.argv),
                "adaptive": job.adaptive,
                "done": job.done,
            }
            for job in state.jobs.values()
        },
        "allocations": {
            record.host: {
                "jobid": record.allocation.jobid,
                "firm": record.allocation.firm,
                "astate": record.allocation.state.value,
                "granted": record.allocation.granted_at,
                "expires": record.allocation.lease_expires_at,
                "since": record.allocation.reclaiming_since,
                "claim": (
                    None
                    if record.allocation.claimed_by is None
                    else [
                        record.allocation.claimed_by.jobid,
                        record.allocation.claimed_by.reqid,
                    ]
                ),
                "loan": record.allocation.loaned_to,
            }
            for record in state.machines.values()
            if record.allocation is not None
        },
        "pending": [
            {
                "reqid": r.reqid,
                "jobid": r.jobid,
                "symbolic": r.symbolic,
                "firm": r.firm,
                "arrived": r.arrived_at,
                "reserved": r.reserved_host,
            }
            for r in state.pending
        ],
    }


def restamp_recovered(state: BrokerState, now: float, lease_ttl: float) -> None:
    """Restart-time recovery policy over a rebuilt state (shared by journal
    recovery and standby promotion).

    Recovered machines keep their durable view but lose their *report* (no
    grants until the daemon proves liveness again) and get a fresh silence
    deadline; recovered leases are re-stamped at least one TTL out and marked
    ``recovered`` so re-registration can confirm them or flag a
    ``recovery.conflict``.
    """
    for record in state.machines.values():
        if record.last_report >= 0.0:
            record.last_report = -1.0
        if record.last_seen >= 0.0 and not record.dead:
            record.last_seen = now
        allocation = record.allocation
        if allocation is not None:
            allocation.recovered = True
            allocation.lease_expires_at = max(
                allocation.lease_expires_at, now + lease_ttl
            )
    state.mark_all_pending_dirty()


@dataclass
class RecoveryInfo:
    """What one snapshot+replay recovery saw and produced."""

    base_generation: int = 0
    top_generation: int = 0
    snapshot_used: bool = False
    records: int = 0
    epoch: int = 0
    torn_tails: int = 0
    corrupt_records: int = 0
    snapshot_fallbacks: int = 0
    skipped_ops: int = 0
    wal_files: List[int] = field(default_factory=list)


# -- replay (module-level: shared by recovery and the warm standby's shadow
# state, which applies shipped frames without owning a journal) --------------


def _apply_machine_op(state: BrokerState, op: Dict[str, Any]) -> None:
    record = state.add_machine(op["host"])
    if record.platform != op["platform"]:
        record.platform = op["platform"]
    if record.kind != op["mkind"]:
        record.kind = op["mkind"]
    if record.owner != op["owner"]:
        record.owner = op["owner"]
    if record.console_active != op["console"]:
        record.console_active = bool(op["console"])
    if record.cpu_load != op["load"]:
        record.cpu_load = int(op["load"])
    record.n_processes = int(op["nproc"])
    if op["reported"]:
        record.last_report = float(op["seen"])
    elif record.last_report >= 0.0:
        record.last_report = -1.0
    record.last_seen = float(op["seen"])
    if record.dead != bool(op["dead"]):
        record.dead = bool(op["dead"])
    record.leases = tuple(int(j) for j in op.get("leases", ()))
    record.borrowed_from = op.get("borrowed")


def _link_claim(state: BrokerState, allocation: Any, jobid: int, reqid: int) -> None:
    for request in state.pending:
        if request.jobid == jobid and request.reqid == reqid:
            allocation.claimed_by = request
            request.reserved_host = allocation.host
            return
    # The claimant is no longer pending (satisfied elsewhere, or its
    # job's requests were dropped) while the reclaim it demanded is
    # still in flight.  The live state keeps that dangling reference,
    # so replay carries the claim on a detached request rather than
    # silently forgetting who asked.
    allocation.claimed_by = PendingRequest(
        reqid=reqid,
        jobid=jobid,
        symbolic="",
        firm=False,
        arrived_at=-1.0,
        reserved_host=allocation.host,
    )


def apply_snapshot(
    state: BrokerState, doc: Dict[str, Any], info: RecoveryInfo
) -> None:
    """Rebuild ``state`` from one snapshot document (the replay baseline)."""
    state._next_jobid = max(state._next_jobid, int(doc.get("next_jobid", 1)))
    for op in doc.get("machines", ()):
        _apply_machine_op(state, op)
    for job in doc.get("jobs", ()):
        record = state.adopt_job(
            int(job["jobid"]),
            job["user"],
            job["home"],
            job.get("rsl", ""),
            list(job.get("argv", ())),
            adaptive_hint=bool(job.get("adaptive")),
        )
        if job.get("done"):
            record.done = True
    for entry in doc.get("pending", ()):
        request = PendingRequest(
            reqid=int(entry["reqid"]),
            jobid=int(entry["jobid"]),
            symbolic=entry["symbolic"],
            firm=bool(entry["firm"]),
            arrived_at=float(entry["arrived"]),
            reserved_host=entry.get("reserved"),
        )
        state.pending.append(request)
    for entry in doc.get("allocations", ()):
        host = entry["host"]
        state.add_machine(host)
        allocation = state.allocate(
            host,
            int(entry["jobid"]),
            bool(entry["firm"]),
            now=float(entry["granted"]),
            lease_expires_at=float(entry["expires"]),
        )
        if entry.get("astate") == AllocationState.RECLAIMING.value:
            allocation.state = AllocationState.RECLAIMING
            allocation.reclaiming_since = float(entry.get("since", -1.0))
        elif entry.get("astate") == AllocationState.MIGRATING.value:
            allocation.state = AllocationState.MIGRATING
            allocation.loaned_to = entry.get("loan")
        claim = entry.get("claim")
        if claim:
            _link_claim(state, allocation, claim[0], claim[1])


def apply_op(state: BrokerState, op: Dict[str, Any], info: RecoveryInfo) -> None:
    """Apply one replayed journal op to ``state``."""
    kind = op["op"]
    if kind == "epoch":
        info.epoch = max(info.epoch, int(op["epoch"]))
        state._next_jobid = max(state._next_jobid, int(op["first_jobid"]))
    elif kind == "machine":
        _apply_machine_op(state, op)
    elif kind == "job":
        state.adopt_job(
            int(op["jobid"]),
            op["user"],
            op["home"],
            op.get("rsl", ""),
            list(op.get("argv", ())),
            adaptive_hint=bool(op.get("adaptive")),
        )
    elif kind == "job_done":
        if op.get("prune"):
            state.jobs.pop(int(op["jobid"]), None)
        else:
            job = state.jobs.get(int(op["jobid"]))
            if job is not None:
                job.done = True
    elif kind == "alloc":
        state.add_machine(op["host"])
        state.allocate(
            op["host"],
            int(op["jobid"]),
            bool(op["firm"]),
            now=float(op["granted"]),
            lease_expires_at=float(op["expires"]),
        )
    elif kind == "release":
        record = state.machines.get(op["host"])
        if record is not None:
            released = record.allocation
            record.allocation = None
            if released is not None and released.claimed_by is not None:
                released.claimed_by.reserved_host = None
    elif kind == "reclaim":
        record = state.machines.get(op["host"])
        allocation = record.allocation if record is not None else None
        if allocation is not None:
            allocation.state = AllocationState.RECLAIMING
            allocation.reclaiming_since = float(op["since"])
            claim = op.get("claim")
            if claim:
                _link_claim(state, allocation, claim[0], claim[1])
    elif kind == "pend+":
        state.pending.append(
            PendingRequest(
                reqid=int(op["reqid"]),
                jobid=int(op["jobid"]),
                symbolic=op["symbolic"],
                firm=bool(op["firm"]),
                arrived_at=float(op["arrived"]),
            )
        )
    elif kind == "pend-":
        for request in state.pending:
            if request.reqid == op["reqid"] and request.jobid == op["jobid"]:
                state.pending.remove(request)
                break
    elif kind == "leases":
        for host, expires in op["leases"].items():
            record = state.machines.get(host)
            if record is not None and record.allocation is not None:
                record.allocation.lease_expires_at = float(expires)
    elif kind == "loan":
        # Donor side of a cross-shard borrow: the machine stays allocated
        # (to the borrower's jobid, leased as usual) but is marked out on
        # loan so the recovered donor excludes it from its own scheduling.
        record = state.machines.get(op["host"])
        allocation = record.allocation if record is not None else None
        if allocation is not None:
            allocation.state = AllocationState.MIGRATING
            allocation.loaned_to = op.get("to")
    elif kind == "forget":
        # Borrower side of a loan ending: the borrowed record vanishes.
        state.forget_machine(op["host"])
    # Unknown ops (a newer writer) are ignored: forward-compatible replay.


def apply_payloads(
    state: BrokerState, payloads: List[str], info: RecoveryInfo
) -> None:
    """Apply a run of framed payloads (shipped or replayed) to ``state``,
    with the same skip-on-inconsistency policy as WAL replay."""
    for payload in payloads:
        try:
            op = json.loads(payload)
        except ValueError:
            info.corrupt_records += 1
            break
        try:
            apply_op(state, op, info)
        except Exception:
            info.skipped_ops += 1
            continue
        info.records += 1


class BrokerJournal:
    """Append-only WAL + compacting snapshots over one simulated filesystem.

    Standalone-testable: only needs a :class:`Filesystem`, a clock callable
    returning the current simulated time, and (optionally) a metrics
    registry.  :class:`~repro.broker.service.BrokerService` wires the real
    ones and attaches the live state so mutations self-record.
    """

    def __init__(
        self,
        fs: Any,
        clock: Callable[[], float],
        metrics: Any = None,
        directory: str = "/var/rbroker",
        compact_bytes: int = 65536,
        keep_generations: int = 2,
    ) -> None:
        self.fs = fs
        self.clock = clock
        self.metrics = metrics
        self.directory = directory.rstrip("/")
        self.compact_bytes = compact_bytes
        self.keep_generations = max(2, keep_generations)
        self._state: Optional[BrokerState] = None
        existing = self._generations()
        self.generation = existing[-1] if existing else 0
        self._wal_bytes = (
            len(self.fs.read(self._wal_path(self.generation)))
            if self.fs.exists(self._wal_path(self.generation))
            else 0
        )
        #: Running value of :meth:`total_bytes` for the ``journal.bytes``
        #: gauge: every flush adds what it appended; compaction and ``tear``
        #: — the only other writers — recount from disk.
        self._disk_bytes = self.total_bytes()
        #: Framed records accepted but not yet on disk (the "page cache").
        self._buffer: List[str] = []
        #: Oldest instant anything has been waiting to reach disk; -1 = clean.
        self._oldest_pending = -1.0
        #: Coalesced dirty sets drained at the next flush.
        self._machine_dirty: Dict[str, MachineRecord] = {}
        self._lease_dirty: Dict[str, float] = {}
        self._stall_until = -1.0
        #: Last attached epoch; re-seeded into every fresh generation's WAL
        #: so compaction cannot lose it.
        self._epoch = 0
        self.records_written = 0
        self.flushes = 0
        self.compactions = 0
        #: WAL shipping to a warm standby.  The ship *stream* is the
        #: concatenation of every character physically appended to a WAL
        #: after :meth:`enable_shipping` (flushes and compaction openers
        #: alike), identified by the enabling incarnation's epoch.  Offsets
        #: are characters of that stream; every append is whole frames, so
        #: chunk boundaries are always valid replay cut points.
        self.ship_enabled = False
        self.ship_stream = 0
        self.flushed_offset = 0
        self.acked_offset = 0
        #: Flushed-but-unacked chunks ``(offset, data)``, retained for
        #: resend on standby reconnect; trimmed as acks arrive.
        self._ship_chunks: List[Tuple[int, str]] = []
        #: Kick callable: invoked (if set) after each append so the ship
        #: server wakes and drains new data within its in-flight window.
        self._ship_kick: Optional[Callable[[], None]] = None

    # -- paths and generations ----------------------------------------------

    def _wal_path(self, generation: int) -> str:
        return f"{self.directory}/wal.{generation:06d}"

    def _snap_path(self, generation: int) -> str:
        return f"{self.directory}/snap.{generation:06d}"

    def _generations(self) -> List[int]:
        """Sorted generation numbers that have any file on disk."""
        prefix = self.directory + "/"
        found = set()
        for path in self.fs.listdir():
            if not path.startswith(prefix):
                continue
            name = path[len(prefix) :]
            for stem in ("wal.", "snap."):
                if name.startswith(stem):
                    try:
                        found.add(int(name[len(stem) :]))
                    except ValueError:
                        pass
        return sorted(found)

    # -- recording -----------------------------------------------------------

    def attach(self, state: BrokerState, epoch: int, compact: bool = False) -> None:
        """Bind the live state so its mutations self-record.

        ``compact=True`` (the post-recovery path) immediately snapshots the
        attached state into a fresh generation, so the next recovery replays
        from here rather than from the whole history.  An epoch record is
        always written: the successor broker must recover a strictly higher
        epoch than any it could have journalled.
        """
        self._state = state
        state.journal = self
        self._epoch = epoch
        if compact:
            self._compact()
        self.record({"op": "epoch", "epoch": epoch, "first_jobid": state._next_jobid})

    def record(self, op: Dict[str, Any]) -> None:
        """Append one structural op, write-through (flushed immediately
        unless the disk is stalled)."""
        self._buffer.append(_frame(_encode(op)))
        self.records_written += 1
        if self._oldest_pending < 0.0:
            self._oldest_pending = self.clock()
        if self.metrics is not None:
            self.metrics.counter("journal.records").inc()
        self.flush()

    def note_machine(self, record: MachineRecord) -> None:
        """Mark one machine's durable view dirty (coalesced until flush)."""
        self._machine_dirty[record.host] = record
        if self._oldest_pending < 0.0:
            self._oldest_pending = self.clock()

    def note_lease(self, host: str, expires_at: float) -> None:
        """Mark one lease renewal (coalesced: only the latest expiry per
        host between flushes is written)."""
        self._lease_dirty[host] = expires_at
        if self._oldest_pending < 0.0:
            self._oldest_pending = self.clock()

    def note_forget(self, host: str) -> None:
        """Durably forget a machine (a borrowed record whose loan ended).

        Any coalesced notes still pending for the host are dropped first:
        ``flush`` drains notes into the same append as structural ops, so a
        surviving note would re-create the record right after the forget on
        replay."""
        self._machine_dirty.pop(host, None)
        self._lease_dirty.pop(host, None)
        self.record({"op": "forget", "host": host})

    def _drain_notes(self) -> None:
        if self._machine_dirty:
            for record in self._machine_dirty.values():
                self._buffer.append(_frame(_encode(_machine_op(record))))
                self.records_written += 1
                if self.metrics is not None:
                    self.metrics.counter("journal.records").inc()
            self._machine_dirty = {}
        if self._lease_dirty:
            payload = _encode({"op": "leases", "leases": dict(self._lease_dirty)})
            self._buffer.append(_frame(payload))
            self.records_written += 1
            if self.metrics is not None:
                self.metrics.counter("journal.records").inc()
            self._lease_dirty = {}

    def flush(self, force: bool = False) -> bool:
        """Write everything buffered to the WAL (the fsync point).

        Returns False without writing while a :class:`DiskStall` is in
        effect (unless forced): the data stays in the cache, flush lag
        builds, and a crash in the window loses it — which reconciliation
        against live daemon inventories then covers.
        """
        now = self.clock()
        if not force and now < self._stall_until:
            self._update_lag(now)
            return False
        self._drain_notes()
        if not self._buffer:
            self._oldest_pending = -1.0
            self._update_lag(now)
            return True
        data = "".join(self._buffer)
        self._buffer = []
        self._oldest_pending = -1.0
        self.fs.append(self._wal_path(self.generation), data)
        self._wal_bytes += len(data)
        self._disk_bytes += len(data)
        self._ship_append(data)
        self.flushes += 1
        if self.metrics is not None:
            self.metrics.counter("journal.flushes").inc()
            self.metrics.counter("journal.flushed_bytes").inc(len(data))
        self._update_lag(now)
        if self._state is not None and self._wal_bytes >= self.compact_bytes:
            self._compact()
        if self.metrics is not None:
            self.metrics.gauge("journal.bytes").set(self._disk_bytes)
        return True

    def _update_lag(self, now: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge("journal.flush_lag").set(self.flush_lag(now))

    def flush_lag(self, now: float) -> float:
        """How long the oldest unflushed op has been waiting (0 = clean)."""
        if self._oldest_pending < 0.0:
            return 0.0
        return max(0.0, now - self._oldest_pending)

    def pending_ops(self) -> int:
        """Ops accepted but not yet durable (buffered + coalesced)."""
        return (
            len(self._buffer)
            + len(self._machine_dirty)
            + (1 if self._lease_dirty else 0)
        )

    def total_bytes(self) -> int:
        """Total journal footprint on disk (all kept WALs + snapshots),
        counted from the files themselves."""
        prefix = self.directory + "/"
        return sum(
            len(self.fs.read(path))
            for path in self.fs.listdir()
            if path.startswith(prefix)
        )

    def discard_unflushed(self) -> None:
        """Drop everything still in the cache — the broker process died."""
        self._buffer = []
        self._machine_dirty = {}
        self._lease_dirty = {}
        self._oldest_pending = -1.0
        self._stall_until = -1.0

    # -- WAL shipping ---------------------------------------------------------

    def enable_shipping(self, stream: int, kick: Optional[Callable[[], None]] = None) -> None:
        """Start accounting appends as a ship stream identified by ``stream``
        (the enabling incarnation's epoch).  Offsets restart at zero: a new
        incarnation is a new stream, and a standby holding an old stream id
        re-baselines from a snapshot."""
        self.ship_enabled = True
        self.ship_stream = stream
        self.flushed_offset = 0
        self.acked_offset = 0
        self._ship_chunks = []
        self._ship_kick = kick

    def set_ship_kick(self, kick: Optional[Callable[[], None]]) -> None:
        """Install (or clear) the new-data wakeup for the ship server."""
        self._ship_kick = kick

    def _ship_append(self, data: str) -> None:
        if not self.ship_enabled or not data:
            return
        self._ship_chunks.append((self.flushed_offset, data))
        self.flushed_offset += len(data)
        if self.metrics is not None:
            self.metrics.gauge("journal.ship_lag").set(self.ship_lag())
        if self._ship_kick is not None:
            self._ship_kick()

    def note_ship_ack(self, offset: int) -> None:
        """The standby has durably applied the stream up to ``offset``;
        trim the retained resend tail."""
        if offset <= self.acked_offset:
            return
        self.acked_offset = min(offset, self.flushed_offset)
        self._ship_chunks = [
            (start, data)
            for start, data in self._ship_chunks
            if start + len(data) > self.acked_offset
        ]
        if self.metrics is not None:
            self.metrics.gauge("journal.ship_lag").set(self.ship_lag())

    def ship_pending(self, from_offset: int) -> Optional[List[Tuple[int, str]]]:
        """Retained chunks covering the stream from ``from_offset`` on, or
        None when the stream cannot be resumed there (the tail was trimmed
        past it) and the standby needs a snapshot baseline.

        Acks land on chunk boundaries, so a resumable ``from_offset`` is
        always one too; a mid-chunk offset is sliced defensively (frames
        would still align — chunks are whole frames)."""
        if from_offset >= self.flushed_offset:
            return []
        chunks = [
            (start, data)
            for start, data in self._ship_chunks
            if start + len(data) > from_offset
        ]
        if not chunks or chunks[0][0] > from_offset:
            return None
        start, data = chunks[0]
        if start < from_offset:
            chunks[0] = (from_offset, data[from_offset - start :])
        return chunks

    def ship_lag(self) -> int:
        """Characters flushed but not yet acknowledged by the standby."""
        return max(0, self.flushed_offset - self.acked_offset)

    def ship_stats(self) -> Dict[str, Any]:
        """Replication-side view for the ``stats`` RPC."""
        return {
            "enabled": self.ship_enabled,
            "stream": self.ship_stream,
            "flushed_offset": self.flushed_offset,
            "acked_offset": self.acked_offset,
            "lag_chars": self.ship_lag(),
            "retained_chars": sum(len(data) for _start, data in self._ship_chunks),
        }

    # -- compaction ----------------------------------------------------------

    def _compact(self) -> None:
        if self._state is None:
            return
        generation = self.generation + 1
        payload = _encode({"op": "snapshot", "state": snapshot_state(self._state)})
        self.fs.write(self._snap_path(generation), _frame(payload))
        # The fresh WAL opens with the current epoch record: the snapshot
        # carries only state, and a recovery must never see a *lower* epoch
        # than one it could have journalled just because compaction rolled
        # the file that held it.
        opener = ""
        if self._epoch:
            opener = _frame(
                _encode(
                    {
                        "op": "epoch",
                        "epoch": self._epoch,
                        "first_jobid": self._state._next_jobid,
                    }
                )
            )
        self.fs.write(self._wal_path(generation), opener)
        self._ship_append(opener)
        self.generation = generation
        self._wal_bytes = len(opener)
        floor = generation - self.keep_generations
        for old in self._generations():
            if old <= floor:
                self.fs.unlink(self._wal_path(old))
                self.fs.unlink(self._snap_path(old))
        self._disk_bytes = self.total_bytes()
        self.compactions += 1
        if self.metrics is not None:
            self.metrics.counter("journal.compactions").inc()

    # -- fault hooks ---------------------------------------------------------

    def tear(self, drop_chars: int) -> int:
        """Truncate the current WAL's tail (a torn write); returns how many
        characters were actually dropped."""
        path = self._wal_path(self.generation)
        if not self.fs.exists(path):
            return 0
        data = self.fs.read(path)
        dropped = min(max(0, int(drop_chars)), len(data))
        if dropped:
            self.fs.write(path, data[: len(data) - dropped])
            self._wal_bytes -= dropped
            self._disk_bytes = self.total_bytes()
        if self.metrics is not None:
            self.metrics.counter("journal.torn_writes").inc()
        return dropped

    def stall(self, duration: float) -> None:
        """Suspend flushes for ``duration`` simulated seconds from now."""
        self._stall_until = max(self._stall_until, self.clock() + duration)
        if self.metrics is not None:
            self.metrics.counter("journal.disk_stalls").inc()

    # -- recovery ------------------------------------------------------------

    def _load_snapshot(self, generation: int) -> Optional[Dict[str, Any]]:
        path = self._snap_path(generation)
        if not self.fs.exists(path):
            return None
        payloads, _torn, _corrupt = parse_frames(self.fs.read(path))
        if not payloads:
            return None
        try:
            doc = json.loads(payloads[0])
        except ValueError:
            return None
        if not isinstance(doc, dict) or doc.get("op") != "snapshot":
            return None
        state = doc.get("state")
        return state if isinstance(state, dict) else None

    def load_state(
        self, first_jobid: int = 1, use_indexes: bool = True
    ) -> Optional[Tuple[BrokerState, RecoveryInfo]]:
        """Pure snapshot+replay: rebuild a state from disk, or None when
        nothing recoverable exists.

        Tries the newest generation's snapshot first, falling back exactly
        one generation when it is missing or corrupt (older WALs are pruned,
        so further fallback cannot be replayed soundly).  Generation 0's
        snapshot is the implicit empty state.
        """
        generations = self._generations()
        if not generations:
            return None
        top = generations[-1]
        info = RecoveryInfo(top_generation=top, epoch=0)
        base_state: Optional[Dict[str, Any]] = None
        base_generation = -1
        for generation in (top, top - 1):
            if generation < 0:
                break
            if generation == 0:
                base_generation = 0
                break
            snapshot = self._load_snapshot(generation)
            if snapshot is not None:
                base_state = snapshot
                base_generation = generation
                info.snapshot_used = True
                break
            info.snapshot_fallbacks += 1
        if base_generation < 0:
            return None
        info.base_generation = base_generation
        state = BrokerState(first_jobid=first_jobid)
        state.use_indexes = use_indexes
        if base_state is not None:
            apply_snapshot(state, base_state, info)
        for generation in range(base_generation, top + 1):
            path = self._wal_path(generation)
            if not self.fs.exists(path):
                continue
            info.wal_files.append(generation)
            payloads, torn, corrupt = parse_frames(self.fs.read(path))
            info.torn_tails += torn
            info.corrupt_records += corrupt
            # Ops inconsistent with the rebuilt state (possible only after
            # a torn/corrupt prefix) are skipped inside; reconciliation
            # settles the difference.
            apply_payloads(state, payloads, info)
        return state, info

    def recover(
        self,
        first_jobid: int,
        use_indexes: bool,
        now: float,
        lease_ttl: float,
    ) -> Optional[Tuple[BrokerState, RecoveryInfo]]:
        """:meth:`load_state` plus the restart-time recovery policy.

        Recovered machines keep their durable view but lose their *report*
        (no grants until the daemon proves liveness again) and get a fresh
        silence deadline; recovered leases are re-stamped at least one TTL
        out and marked ``recovered`` so re-registration can confirm them or
        flag a ``recovery.conflict`` — surviving the case where the daemon
        died with the broker (the lease simply expires).
        """
        loaded = self.load_state(first_jobid=first_jobid, use_indexes=use_indexes)
        if loaded is None:
            return None
        state, info = loaded
        restamp_recovered(state, now, lease_ttl)
        return state, info

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Live stats for the ``stats`` RPC / ``rbstat --stats``."""
        now = self.clock()
        return {
            "enabled": True,
            "generation": self.generation,
            "records": self.records_written,
            "flushes": self.flushes,
            "compactions": self.compactions,
            "wal_bytes": self._wal_bytes,
            "total_bytes": self.total_bytes(),
            "pending_ops": self.pending_ops(),
            "flush_lag": round(self.flush_lag(now), 6),
            "stalled": now < self._stall_until,
        }

    def __repr__(self) -> str:
        return (
            f"<BrokerJournal gen={self.generation} records={self.records_written} "
            f"wal_bytes={self._wal_bytes}>"
        )
