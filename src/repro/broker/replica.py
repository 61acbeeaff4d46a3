"""``rbstandby`` — the warm-standby broker replica (DESIGN.md §16).

Started on the configured standby machine by the primary broker's keeper
(via plain rsh, unprivileged, exactly like ``rbdaemon``).  It dials the
primary's ship port, subscribes to the WAL stream with the offset it has
durably applied, and maintains a **shadow** :class:`BrokerState` by applying
shipped frames with the same replay code journal recovery uses.  Everything
it applies is also persisted to its own machine's filesystem first, so a
killed-and-respawned standby resumes the stream from where it left off
instead of re-baselining.

Primary death is detected by silence: the primary heartbeats the ship
connection every ``standby_heartbeat_interval``; when nothing (heartbeat,
frame, or successful redial) has been heard for
``standby_promotion_deadline``, the standby promotes itself via
:meth:`~repro.broker.service.BrokerService.promote_standby` — the shadow
state becomes live under a bumped epoch, a fresh broker incarnation boots on
this machine (the well-known secondary address daemons and apps alternate
toward), and the ex-primary is fenced by epoch.  A partition of just the
ship link looks identical to primary death from here, so a *false* promotion
is possible by design; fencing (stale-epoch rejection by daemons plus the
promoted broker's ``fence_notice``) is what keeps it safe.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.broker import protocol
from repro.broker.journal import (
    RecoveryInfo,
    _frame,
    apply_payloads,
    apply_snapshot,
    parse_frames,
)
from repro.broker.state import BrokerState
from repro.cluster import ports
from repro.cluster.network import EXPIRED
from repro.os.errors import ConnectionClosed, ConnectionRefused, NoSuchHost

#: The standby's local persistence (its machine's filesystem, so it
#: survives process death): the stream id it holds, the stream offset of
#: its snapshot baseline, the framed baseline snapshot, and every shipped
#: frame accepted since.
_DIR = "/var/rbstandby"


def _broker_running_here(proc, service) -> bool:
    """True when this machine already hosts the live broker.

    Guard against double promotion: after a false promotion (a ship-link
    partition, not a dead primary) heals, the not-yet-fenced ex-primary's
    keeper respawns a standby on this machine — where the *promoted* broker
    now runs.  That replica must never promote its stale shadow on top of
    it; it bows out instead.
    """
    if service.broker_host == proc.machine.name:
        return True
    for p in proc.machine.procs.values():
        if p is not proc and p.is_alive and p.argv and p.argv[0] == "rbroker":
            return True
    return False


def _another_standby_running(proc) -> bool:
    """True if a different live rbstandby already runs on this machine
    (the keeper respawns eagerly after a connection loss, like rbdaemon's)."""
    for p in proc.machine.procs.values():
        if p is proc:
            continue
        if p.is_alive and p.argv and p.argv[0] == "rbstandby":
            return True
    return False


class _Replica:
    """The shadow state plus its local persistence."""

    def __init__(self, proc, service) -> None:
        self.proc = proc
        self.fs = proc.machine.fs
        self.service = service
        from repro.obs import metrics_of

        self.metrics = metrics_of(proc)
        self.stream = 0
        #: Stream offset of the snapshot baseline (0 = empty baseline).
        self.base = 0
        #: Stream offset durably applied: ``base`` + persisted WAL length.
        self.acked = 0
        #: Highest primary epoch seen (stream ids, snapshot stamps,
        #: heartbeats, epoch records in the stream itself).
        self.witnessed = 0
        self.info = RecoveryInfo()
        self.state = self._blank_state()
        self._load()

    def _blank_state(self) -> BrokerState:
        state = BrokerState()
        state.use_indexes = self.service.scheduler_mode == "indexed"
        return state

    # -- local persistence ---------------------------------------------------

    def _read_int(self, name: str) -> int:
        path = f"{_DIR}/{name}"
        if not self.fs.exists(path):
            return 0
        try:
            return int(self.fs.read(path).strip())
        except ValueError:
            return 0

    def _load(self) -> None:
        """Rebuild the shadow from local persistence (a respawned standby
        resumes the stream instead of re-baselining)."""
        self.stream = self._read_int("stream")
        self.base = self._read_int("base")
        snap_path = f"{_DIR}/snap"
        if self.fs.exists(snap_path):
            payloads, _torn, _corrupt = parse_frames(self.fs.read(snap_path))
            if payloads:
                try:
                    doc = json.loads(payloads[0])
                except ValueError:
                    doc = None
                if isinstance(doc, dict) and isinstance(
                    doc.get("state"), dict
                ):
                    apply_snapshot(self.state, doc["state"], self.info)
                    self.witnessed = max(
                        self.witnessed, int(doc.get("epoch", 0))
                    )
        applied = 0
        wal_path = f"{_DIR}/wal"
        if self.fs.exists(wal_path):
            data = self.fs.read(wal_path)
            payloads, _torn, _corrupt = parse_frames(data)
            apply_payloads(self.state, payloads, self.info)
            applied = len(data)
        self.acked = self.base + applied
        self.witnessed = max(self.witnessed, self.info.epoch, self.stream)

    # -- stream ingestion ----------------------------------------------------

    def accept_snapshot(self, msg: Dict[str, Any]) -> None:
        """Re-baseline the shadow from a full-state snapshot."""
        self.stream = int(msg.get("stream", 0))
        self.base = int(msg.get("offset", 0))
        self.acked = self.base
        epoch = int(msg.get("epoch", 0))
        self.witnessed = max(self.witnessed, epoch, self.stream)
        self.info = RecoveryInfo()
        self.state = self._blank_state()
        doc = msg.get("state")
        if isinstance(doc, dict):
            apply_snapshot(self.state, doc, self.info)
        payload = json.dumps(
            {"op": "snapshot", "epoch": epoch, "state": doc},
            sort_keys=True,
            separators=(",", ":"),
        )
        self.fs.write(f"{_DIR}/stream", str(self.stream))
        self.fs.write(f"{_DIR}/base", str(self.base))
        self.fs.write(f"{_DIR}/snap", _frame(payload))
        self.fs.write(f"{_DIR}/wal", "")
        self.metrics.counter("standby.snapshots").inc()

    def accept_frame(self, msg: Dict[str, Any]) -> bool:
        """Persist and apply one shipped chunk; False means the stream is
        out of sync here (wrong stream or a gap) and the session must
        restart with a fresh hello."""
        if int(msg.get("stream", -1)) != self.stream:
            return False
        offset = int(msg.get("offset", 0))
        data = msg.get("data", "")
        if offset > self.acked:
            return False  # gap: an ack raced a resend boundary
        if offset + len(data) <= self.acked:
            return True  # pure duplicate of an already-applied chunk
        if offset < self.acked:
            # Overlap from a resend; acks land on chunk boundaries, so the
            # trim point is frame-aligned.
            data = data[self.acked - offset :]
        payloads, _torn, _corrupt = parse_frames(data)
        before = self.info.records
        apply_payloads(self.state, payloads, self.info)
        self.fs.append(f"{_DIR}/wal", data)
        self.acked += len(data)
        self.witnessed = max(self.witnessed, self.info.epoch)
        self.metrics.counter("standby.frames").inc()
        self.metrics.counter("standby.applied_records").inc(
            self.info.records - before
        )
        return True


def make_standby_main(service):
    """Bind the ``rbstandby`` program body to its service harness."""

    def rbstandby_main(proc):
        """Program body: ``argv = ["rbstandby", primary_host]``."""
        from repro.obs import metrics_of, tracer_of

        if len(proc.argv) < 2:
            return 1
        primary = proc.argv[1]
        cal = proc.machine.network.calibration
        boot = tracer_of(proc).start(
            "rbstandby.boot",
            actor=f"rbstandby:{proc.machine.name}",
            host=proc.machine.name,
        )
        yield proc.sleep(cal.daemon_startup)
        if _another_standby_running(proc):
            boot.end(outcome="duplicate")
            return 0
        if _broker_running_here(proc, service):
            boot.end(outcome="broker_here")
            return 0
        replica = _Replica(proc, service)
        boot.end(resumed_at=replica.acked, stream=replica.stream)
        # Detach so the keeper's rsh invocation returns while we run on.
        proc.daemonize()
        metrics = metrics_of(proc)
        retries = metrics.counter("rbstandby.connect_retries")
        deadline = cal.standby_promotion_deadline
        # Redial cadence is capped at the heartbeat interval so the
        # promotion decision lands within one beat of the deadline.
        redial_cap = cal.standby_heartbeat_interval
        last_heard = proc.env.now

        def promote():
            if _broker_running_here(proc, service):
                # The live broker moved here while we streamed (or a
                # promotion already happened): never promote on top of it.
                return 0
            span = tracer_of(proc).start(
                "broker.promotion",
                actor=f"rbstandby:{proc.machine.name}",
                host=proc.machine.name,
                witnessed=replica.witnessed,
                acked=replica.acked,
                silent_for=round(proc.env.now - last_heard, 6),
            )
            service.promote_standby(
                replica.state,
                witnessed=replica.witnessed,
                applied_records=replica.info.records,
                acked_offset=replica.acked,
            )
            span.end(epoch=service.epoch)
            return 0

        while True:
            # -- (re)establish the ship connection ---------------------------
            conn = None
            delay = cal.connect_retry_base
            while conn is None:
                try:
                    conn = yield proc.connect(primary, ports.SHIP)
                except (ConnectionRefused, NoSuchHost):
                    if proc.env.now - last_heard >= deadline:
                        return promote()
                    retries.inc()
                    backoff = proc.sleep(delay)
                    try:
                        yield backoff
                    finally:
                        backoff.cancel()
                    delay = min(delay * 2.0, redial_cap)
            conn.send(
                protocol.ship_hello(
                    proc.machine.name, replica.stream, replica.acked
                )
            )
            # -- stream until silence, desync, or EOF ------------------------
            resync = False
            try:
                while True:
                    msg = yield conn.recv_or_deadline(deadline)
                    if msg is EXPIRED:
                        # Deadline of silence on an open connection: a
                        # partition blackholes sends without an EOF, and a
                        # dead primary can leave the endpoint dangling.
                        # Either way: promote.
                        conn.close()
                        return promote()
                    last_heard = proc.env.now
                    kind = msg.get("type")
                    if kind == "ship_snapshot":
                        replica.accept_snapshot(msg)
                        conn.send(
                            protocol.ship_ack(replica.stream, replica.acked)
                        )
                    elif kind == "ship_frame":
                        if replica.accept_frame(msg):
                            conn.send(
                                protocol.ship_ack(
                                    replica.stream, replica.acked
                                )
                            )
                        else:
                            # Out of sync: drop the session and re-hello
                            # (the primary answers with a resend or a
                            # snapshot baseline).
                            resync = True
                            metrics.counter("standby.resyncs").inc()
                            break
                    elif kind == "ship_heartbeat":
                        replica.witnessed = max(
                            replica.witnessed, int(msg.get("epoch", 0))
                        )
            except ConnectionClosed:
                pass
            conn.close()
            if resync:
                # The primary was alive a moment ago; restart the silence
                # clock from the resync point.
                last_heard = proc.env.now

    return rbstandby_main
