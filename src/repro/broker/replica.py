"""Warm-standby replication and fencing (DESIGN.md §16).

The primary broker's side is two components: :class:`Shipper` serves the
WAL ship stream to the standby (and keeps the standby process alive), and
:class:`Fence` stops a broker incarnation the moment it learns that a
higher epoch exists — built whenever grants carry epoch stamps (with a
standby, and in any multi-shard federation).

``rbstandby``, the replica itself, is started on the configured standby
machine by the shipper's keeper (via plain rsh, unprivileged, exactly like
``rbdaemon``).  It dials the
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

import math
from typing import Any, Dict

from repro.broker import protocol
from repro.broker.journal import _encode, _frame, parse_frames, read_snapshot
from repro.broker.leases import keep_respawned
from repro.broker.recovery import (
    RecoveryInfo,
    apply_payloads,
    apply_snapshot,
    snapshot_state,
)
from repro.broker.state import BrokerState
from repro.cluster import ports
from repro.cluster.network import EXPIRED
from repro.os.errors import ConnectionClosed, ConnectionRefused, NoSuchHost
from repro.os.retry import connect_with_backoff
from repro.os.signals import SIGKILL

#: The standby's local persistence (its machine's filesystem, so it
#: survives process death): ``snap``, the framed baseline snapshot with
#: the stream id it belongs to and the stream offset it was cut at, and
#: ``wal``, every shipped frame accepted since.
_DIR = "/var/rbstandby"


class Fence:
    """Epoch fencing of one broker incarnation."""

    def __init__(self, core) -> None:
        self.proc = core.proc
        self.metrics = core.metrics
        self.service = core.service
        self.epoch = core.epoch
        #: Set once this incarnation is fenced; all grants stop.
        self.demoted = False

    def demote(self, witnessed, source, host=None) -> None:
        """Fenced: a higher epoch exists, so this incarnation must stop
        granting *now*.  Process death is the simplest correct way — every
        session, sweeper and keeper dies with it, and grants already sent
        are bounded by their leases."""
        if self.demoted:
            return
        self.demoted = True
        self.metrics.counter("broker.demotions").inc()
        self.service.log(
            event="broker_demoted",
            epoch=self.epoch,
            witnessed=witnessed,
            source=source,
            host=host,
        )
        self.proc.signal(SIGKILL)

    def fencer(self, target):
        """Chase the ex-primary with a fence notice (promoted incarnations
        only).  Daemons fence a reachable ex-primary through its own
        sessions; this covers the one nobody else can reach — an ex-primary
        isolated with zero daemons, still believing it is the broker."""
        conn = yield from connect_with_backoff(
            self.proc,
            [target],
            ports.SHIP,
            attempts=math.inf,
            counter=self.metrics.counter("fencing.notice_retries"),
        )
        protocol.try_send(conn, protocol.fence_notice(self.epoch))
        try:
            # Hold the session open until the peer acts on the notice (its
            # demotion closes the connection).
            yield conn.recv()
        except ConnectionClosed:
            pass
        conn.close()


class Shipper:
    """The primary's end of WAL shipping: one ship session at a time."""

    def __init__(self, core) -> None:
        self.proc = core.proc
        self.state = core.state
        self.cal = core.cal
        self.metrics = core.metrics
        self.service = core.service
        self.epoch = core.epoch
        self.journal = core.journal
        self.fence = core.fence
        #: The live ship session to the standby (None when disconnected).
        self._ship_conn = None
        #: Stream offset shipped on the current session.
        self._ship_sent = 0
        #: Triggered when the ship session drops (wakes the standby keeper).
        self._standby_down = None

    def standby_keeper(self, host):
        """Spawn the warm standby on ``host`` and respawn it whenever its
        ship session drops (the same keeper discipline as daemons)."""

        def arm(_host, down):
            self._standby_down = down

        return keep_respawned(
            self, host, ("rbstandby", self.proc.machine.name), arm,
            "broker.standby_restarts", "standby_restart",
        )

    def acceptor(self, listener):
        """Accept ship-port sessions (the standby's hello, or a promoted
        peer's fence notice)."""
        while True:
            try:
                conn = yield listener.accept()
            except ConnectionClosed:
                return
            self.proc.thread(self._serve(conn), name="ship-session")

    def _serve(self, conn):
        """Serve one ship session: resume or re-baseline the stream, then
        drain frames as the journal flushes and trim on acks."""
        journal = self.journal
        try:
            first = yield conn.recv()
        except ConnectionClosed:
            conn.close()
            return
        kind = first.get("type")
        if kind == "fence_notice":
            # A peer broker announcing a higher epoch over the ship port:
            # the fencing path for an ex-primary whose daemons are all on
            # the far side of a partition.
            witnessed = int(first.get("epoch", 0))
            conn.close()
            if witnessed > self.epoch:
                self.fence.demote(witnessed=witnessed, source="fence_notice")
            return
        if kind != "ship_hello" or not journal.ship_enabled:
            conn.close()
            return
        self._ship_conn = conn
        self.metrics.counter("ship.sessions").inc()
        acked = int(first.get("acked", 0))
        resumable = (
            int(first.get("stream", -1)) == journal.ship_stream
            and acked <= journal.flushed_offset
            and journal.ship_pending(acked) is not None
        )
        if resumable:
            # The standby holds a prefix of this very stream: trim to its
            # ack and resend whatever it missed.
            journal.note_ship_ack(acked)
            self._ship_sent = acked
            if journal.flushed_offset > acked:
                self.metrics.counter("ship.resends").inc()
        else:
            # Different stream (a new incarnation) or a gap past the
            # retained window: re-baseline with a full-state snapshot at
            # the current flushed offset.
            journal.flush(force=True)
            self._ship_sent = journal.flushed_offset
            journal.note_ship_ack(self._ship_sent)
            self.metrics.counter("ship.snapshots").inc()
            protocol.try_send(
                conn,
                protocol.ship_snapshot(
                    journal.ship_stream,
                    self._ship_sent,
                    snapshot_state(self.state),
                    self.epoch,
                ),
            )
        journal.set_ship_kick(self._drain)
        self._drain()
        try:
            while True:
                msg = yield conn.recv()
                if self._ship_conn is not conn:
                    return  # superseded by a fresh session
                if (
                    msg.get("type") == "ship_ack"
                    and int(msg.get("stream", -1)) == journal.ship_stream
                ):
                    journal.note_ship_ack(int(msg.get("acked", 0)))
                    self._drain()
        except ConnectionClosed:
            pass
        conn.close()
        if self._ship_conn is conn:
            self._ship_conn = None
            journal.set_ship_kick(None)
            # Wake the standby keeper so it respawns the replica (which
            # resumes from its locally persisted offset).
            down = self._standby_down
            if down is not None and not down.triggered:
                down.succeed()

    def _drain(self):
        """Push flushed-but-unshipped journal chars down the live ship
        session, whole retained chunks at a time (chunks are whole frames —
        the standby parses each one independently), bounded by the in-flight
        window."""
        conn = self._ship_conn
        journal = self.journal
        if conn is None:
            return
        while self._ship_sent < journal.flushed_offset:
            if (
                self._ship_sent - journal.acked_offset
                >= self.cal.ship_window_chars
            ):
                self.metrics.counter("ship.window_stalls").inc()
                return  # window full: the next ack re-kicks the drain
            pending = journal.ship_pending(self._ship_sent)
            if not pending:
                return
            start, data = pending[0]
            if not protocol.try_send(
                conn, protocol.ship_frame(journal.ship_stream, start, data)
            ):
                return
            self._ship_sent = start + len(data)
            self.metrics.counter("ship.frames").inc()
            self.metrics.counter("ship.shipped_chars").inc(len(data))

    def heartbeater(self):
        """Beat the ship session every ``standby_heartbeat_interval`` so the
        standby's silence clock only runs when the primary (or the path to
        it) is actually gone."""
        while True:
            yield self.proc.sleep(self.cal.standby_heartbeat_interval)
            if self._ship_conn is not None:
                protocol.try_send(
                    self._ship_conn,
                    protocol.ship_heartbeat(self.epoch, self.proc.env.now),
                )


def _broker_running_here(proc, service) -> bool:
    """True when this machine already hosts the live broker.

    Guard against double promotion: after a false promotion (a ship-link
    partition, not a dead primary) heals, the not-yet-fenced ex-primary's
    keeper respawns a standby on this machine — where the *promoted* broker
    now runs.  That replica must never promote its stale shadow on top of
    it; it bows out instead.
    """
    return service.broker_host == proc.machine.name or any(
        p is not proc for p in proc.machine.running("rbroker")
    )


class _Replica:
    """The shadow state plus its local persistence."""

    def __init__(self, proc) -> None:
        self.proc = proc
        self.fs = proc.machine.fs
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
        self.state = BrokerState()
        self._load()

    # -- local persistence ---------------------------------------------------

    def _load(self) -> None:
        """Rebuild the shadow from local persistence (a respawned standby
        resumes the stream instead of re-baselining).  Without a readable
        snapshot the shadow holds stream 0, which no primary ships, so the
        first hello re-baselines."""
        doc = read_snapshot(self.fs, f"{_DIR}/snap")
        if doc is None:
            return
        self.stream = int(doc.get("stream", 0))
        self.base = int(doc.get("base", 0))
        apply_snapshot(self.state, doc["state"], self.info)
        applied = 0
        wal_path = f"{_DIR}/wal"
        if self.fs.exists(wal_path):
            data = self.fs.read(wal_path)
            payloads, _torn, _corrupt = parse_frames(data)
            apply_payloads(self.state, payloads, self.info)
            applied = len(data)
        self.acked = self.base + applied
        self.witnessed = max(
            int(doc.get("epoch", 0)), self.info.epoch, self.stream
        )

    # -- stream ingestion ----------------------------------------------------

    def accept_snapshot(self, msg: Dict[str, Any]) -> None:
        """Re-baseline the shadow from a full-state snapshot."""
        self.stream = int(msg.get("stream", 0))
        self.base = int(msg.get("offset", 0))
        self.acked = self.base
        epoch = int(msg.get("epoch", 0))
        self.witnessed = max(self.witnessed, epoch, self.stream)
        self.info = RecoveryInfo()
        self.state = BrokerState()
        doc = msg.get("state")
        if isinstance(doc, dict):
            apply_snapshot(self.state, doc, self.info)
        payload = _encode(
            {
                "op": "snapshot",
                "epoch": epoch,
                "stream": self.stream,
                "base": self.base,
                "state": doc,
            }
        )
        self.fs.write(f"{_DIR}/snap", _frame(payload))
        self.fs.write(f"{_DIR}/wal", "")
        self.metrics.counter("standby.snapshots").inc()

    def accept_frame(self, msg: Dict[str, Any]) -> bool:
        """Persist and apply one shipped chunk; False means the stream is
        out of sync here (wrong stream, or a chunk that does not start where
        the shadow ends) and the session must restart with a fresh hello.
        The primary ships each session from the offset its hello or
        snapshot named, so only a chunk lost or reordered in transit
        desyncs it."""
        if (
            int(msg.get("stream", -1)) != self.stream
            or int(msg.get("offset", 0)) != self.acked
        ):
            return False
        data = msg.get("data", "")
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
        # The keeper respawns eagerly after a connection loss, like
        # rbdaemon's: a second replica on this machine bows out.
        if any(p is not proc for p in proc.machine.running("rbstandby")):
            boot.end(outcome="duplicate")
            return 0
        if _broker_running_here(proc, service):
            boot.end(outcome="broker_here")
            return 0
        replica = _Replica(proc)
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
