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

Replay — rebuilding a state from a snapshot and the WAL — is
:mod:`repro.broker.recovery`'s; :meth:`BrokerJournal.load_state` reads the
files and hands their records to it.

Every string that reaches a WAL (flushes and compaction openers alike) is
also handed to one append hook, :attr:`BrokerJournal.on_append`: whole
frames, so every append ends on a valid replay cut point.  A subsystem that
streams the WAL elsewhere installs itself there (DESIGN.md §16).
"""

from __future__ import annotations

import json
import weakref
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broker.recovery import (
    RecoveryInfo,
    apply_payloads,
    apply_snapshot,
    machine_op,
    snapshot_state,
)
from repro.broker.records import MachineRecord
from repro.broker.state import BrokerState

#: Frame header: 8 decimal digits of payload length + 8 hex digits of CRC32.
_HEADER_CHARS = 16

#: The one encoder behind every journal payload (``json.dumps`` with these
#: options builds a fresh ``JSONEncoder`` per call).
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _no_append(data: str) -> None:
    """The append hook of a journal nothing streams."""


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


def read_snapshot(fs: Any, path: str) -> Optional[Dict[str, Any]]:
    """The framed ``{"op": "snapshot", "state": {...}, ...}`` document at
    ``path``, or None when the file is missing, torn or corrupt."""
    if not fs.exists(path):
        return None
    payloads, _torn, _corrupt = parse_frames(fs.read(path))
    if not payloads:
        return None
    try:
        doc = json.loads(payloads[0])
    except ValueError:
        return None
    if (
        not isinstance(doc, dict)
        or doc.get("op") != "snapshot"
        or not isinstance(doc.get("state"), dict)
    ):
        return None
    return doc


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
        if metrics is not None:
            # Bound once: these are written on every record and flush, and
            # a service attaches (record + flush) right after construction,
            # so binding here creates nothing the first write would not.
            self._records_counter = metrics.counter("journal.records")
            self._flushes_counter = metrics.counter("journal.flushes")
            self._flushed_bytes_counter = metrics.counter("journal.flushed_bytes")
            self._bytes_gauge = metrics.gauge("journal.bytes")
            self._lag_gauge = metrics.gauge("journal.flush_lag")
        self.directory = directory.rstrip("/")
        self.compact_bytes = compact_bytes
        self.keep_generations = max(2, keep_generations)
        #: The attached state, weakly: it holds this journal back.
        self._state: Optional["weakref.ref[BrokerState]"] = None
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
        #: Called with every string appended to a WAL, right after it
        #: reaches the file (see the module docstring).
        self.on_append: Callable[[str], None] = _no_append

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
        self._state = weakref.ref(state)
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
            self._records_counter.inc()
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
        """Durably forget a machine record (``BrokerState.forget_machine``).

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
                self._buffer.append(_frame(_encode(machine_op(record))))
                self.records_written += 1
                if self.metrics is not None:
                    self._records_counter.inc()
            self._machine_dirty = {}
        if self._lease_dirty:
            payload = _encode({"op": "leases", "leases": dict(self._lease_dirty)})
            self._buffer.append(_frame(payload))
            self.records_written += 1
            if self.metrics is not None:
                self._records_counter.inc()
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
        self.on_append(data)
        self.flushes += 1
        if self.metrics is not None:
            self._flushes_counter.inc()
            self._flushed_bytes_counter.inc(len(data))
        self._update_lag(now)
        if self._wal_bytes >= self.compact_bytes:
            self._compact()
        if self.metrics is not None:
            self._bytes_gauge.set(self._disk_bytes)
        return True

    def _update_lag(self, now: float) -> None:
        if self.metrics is not None:
            self._lag_gauge.set(self.flush_lag(now))

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

    # -- compaction ----------------------------------------------------------

    def _compact(self) -> None:
        state = self._state() if self._state is not None else None
        if state is None:
            return
        generation = self.generation + 1
        payload = _encode({"op": "snapshot", "state": snapshot_state(state)})
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
                        "first_jobid": state._next_jobid,
                    }
                )
            )
        self.fs.write(self._wal_path(generation), opener)
        self.on_append(opener)
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

    def load_state(self) -> Optional[Tuple[BrokerState, RecoveryInfo]]:
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
            snapshot = read_snapshot(self.fs, self._snap_path(generation))
            if snapshot is not None:
                base_state = snapshot["state"]
                base_generation = generation
                info.snapshot_used = True
                break
            info.snapshot_fallbacks += 1
        if base_generation < 0:
            return None
        info.base_generation = base_generation
        state = BrokerState()
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
