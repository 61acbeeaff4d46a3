"""Warm-standby replication (DESIGN.md §16).

The subsystem is one :class:`WarmStandby`, the seam object
(:class:`~repro.broker.leases.Peer`) a service builds from its
``standby_host``: it owns the WAL **ship stream** (:class:`ShipStream`, the
journal's append hook) and :meth:`WarmStandby.promote`, and each broker
incarnation attaches a :class:`Shipper` that serves the stream, keeps the
standby process alive and — on a promoted incarnation — fences the
ex-primary.  The standby's fault kinds (:class:`StandbyCrash`,
:class:`ShipLinkPartition`) live here too, with their injector arms.

``rbstandby``, the replica itself, is started on the configured standby
machine by the shipper's keeper (via plain rsh, unprivileged, exactly like
``rbdaemon``).  It dials the primary's ship port, subscribes to the WAL
stream with the offset it has durably applied, and maintains a **shadow**
:class:`BrokerState` by applying shipped frames with the same replay code
journal recovery uses.  Everything
it applies is also persisted to its own machine's filesystem first, so a
killed-and-respawned standby resumes the stream from where it left off
instead of re-baselining.

Primary death is detected by silence: the primary heartbeats the ship
connection every ``standby_heartbeat_interval``; when nothing (heartbeat,
frame, or successful redial) has been heard for
``standby_promotion_deadline``, the standby promotes itself via
:meth:`WarmStandby.promote` — the shadow state becomes live under a bumped
epoch, a fresh broker incarnation boots on this machine (the well-known
secondary address daemons and apps alternate toward), and the ex-primary is
fenced by epoch.  A partition of just the ship link looks identical to
primary death from here, so a *false* promotion is possible by design;
fencing (stale-epoch rejection by daemons plus the promoted broker's
``fence_notice``) is what keeps it safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broker import protocol
from repro.broker.journal import _encode, _frame, parse_frames, read_snapshot
from repro.broker.leases import Peer, keep_respawned, serve_sessions
from repro.broker.recovery import (
    RecoveryInfo,
    apply_payloads,
    apply_snapshot,
    recover,
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


class WarmStandby(Peer):
    """A broker's warm standby, behind the seam (DESIGN.md §11, §16):
    the no-op :class:`Peer` without a ``standby_host``.  Configured, it
    adds the standby machine to the well-known broker addresses and
    installs ``rbstandby`` there."""

    key = "replication"

    def __init__(self, service, host: Optional[str]) -> None:
        self.service = service
        #: The standby machine; None when no standby is configured.
        self.host = host
        self.fences = host is not None
        #: The ex-primary a freshly promoted incarnation must fence (by a
        #: ``fence_notice`` on its ship port); None until a promotion.
        self.fence_target: Optional[str] = None
        if host is None:
            return
        if host == service.broker_host:
            raise ValueError("standby_host must differ from broker_host")
        if host not in service.cluster.machines:
            raise ValueError(f"unknown standby_host {host!r}")
        service.broker_addresses.append(host)
        service.rb_bin.register("rbstandby", make_standby_main(self))
        machine = service.cluster.machines[host]
        if service.rb_bin not in machine.path:
            machine.path = [service.rb_bin] + list(machine.path)

    def attach(self, core) -> Peer:
        """A :class:`Shipper` for the incarnation."""
        if self.host is None:
            return self
        return Shipper(core, self)

    def opened(self, journal) -> None:
        """A fresh :class:`ShipStream` on the journal: a new incarnation is
        a new stream, and a standby holding the old one re-baselines from a
        snapshot.  After a restart's recovery, whose compaction opener and
        epoch record still reach the old stream."""
        if self.host is None:
            return
        if journal is None:
            raise ValueError(
                "a warm standby replicates the WAL: standby_host requires "
                "journal=True"
            )
        ShipStream(journal, self.service.epoch)

    def promote(self, state: BrokerState, witnessed: int, applied_records: int,
                acked_offset: int):
        """Fail over to the standby (called by ``rbstandby`` when the
        primary goes silent past the promotion deadline, DESIGN.md §16).

        The shipped shadow ``state`` becomes the service's live state under
        a strictly higher epoch than any the standby witnessed, through the
        same recovery pipeline as a restart.  The fresh incarnation boots
        *on the standby machine* — the well-known secondary address every
        daemon and app alternates toward — with a fresh journal there that
        nothing streams, and fences the ex-primary by epoch: daemons reject
        its stale-stamped grants and renewals, and the promoted broker
        sends it a ``fence_notice`` for when no daemon is left to.
        """
        service = self.service
        old_primary = service.broker_host
        service.broker_host = self.host
        self.fence_target = old_primary
        service.journal = service._new_journal()
        recover(service, state, witnessed=witnessed)
        service.metrics.counter("broker.promotions").inc()
        service.metrics.counter("recovery.from_standby").inc()
        service.metrics.gauge("recovery.latency_seconds").set(0.0)
        service.log(
            event="broker_promoted",
            epoch=service.epoch,
            host=service.broker_host,
            from_host=old_primary,
            witnessed=witnessed,
            applied_records=applied_records,
            acked_offset=acked_offset,
            jobs=len(state.jobs),
            leases=len(state.leased_records()),
            pending=len(state.pending),
        )
        return service._boot()


class ShipStream:
    """The WAL ship stream of one journal, installed as its append hook:
    every string appended after it opened, identified by the opening
    incarnation's epoch, offset in characters.  Appends are whole frames,
    so chunk boundaries are valid replay cut points; chunks are retained
    until the standby acks them, for resend on reconnect."""

    def __init__(self, journal, stream: int) -> None:
        self.metrics = journal.metrics
        #: The stream id: the epoch of the incarnation that opened it.
        self.id = stream
        self.flushed_offset = 0
        self.acked_offset = 0
        #: Flushed-but-unacked chunks ``(offset, data)``, retained for
        #: resend on standby reconnect; trimmed as acks arrive.
        self._chunks: List[Tuple[int, str]] = []
        #: Invoked (if set) after each append so the ship server wakes and
        #: drains new data within its in-flight window.
        self._kick: Optional[Callable[[], None]] = None
        journal.on_append = self.append

    def append(self, data: str) -> None:
        """The journal's append hook."""
        if not data:
            return
        self._chunks.append((self.flushed_offset, data))
        self.flushed_offset += len(data)
        if self.metrics is not None:
            self.metrics.gauge("journal.ship_lag").set(self.lag())
        if self._kick is not None:
            self._kick()

    def set_kick(self, kick: Optional[Callable[[], None]]) -> None:
        """Install (or clear) the new-data wakeup for the ship server."""
        self._kick = kick

    def note_ack(self, offset: int) -> None:
        """The standby has durably applied the stream up to ``offset``;
        trim the retained resend tail."""
        if offset <= self.acked_offset:
            return
        self.acked_offset = min(offset, self.flushed_offset)
        self._chunks = [
            (start, data)
            for start, data in self._chunks
            if start + len(data) > self.acked_offset
        ]
        if self.metrics is not None:
            self.metrics.gauge("journal.ship_lag").set(self.lag())

    def pending(self, from_offset: int) -> Optional[List[Tuple[int, str]]]:
        """Retained chunks covering the stream from ``from_offset`` on, or
        None when the stream cannot be resumed there and the standby needs
        a snapshot baseline: the tail was trimmed past it, or it is not a
        chunk boundary (the standby acks whole chunks, so it always is)."""
        if from_offset >= self.flushed_offset:
            return []
        chunks = [
            (start, data)
            for start, data in self._chunks
            if start + len(data) > from_offset
        ]
        if not chunks or chunks[0][0] != from_offset:
            return None
        return chunks

    def lag(self) -> int:
        """Characters flushed but not yet acknowledged by the standby."""
        return max(0, self.flushed_offset - self.acked_offset)

    def stats(self) -> Dict[str, Any]:
        """The stream's part of the ``replication`` stats block."""
        return {
            "enabled": True,
            "stream": self.id,
            "flushed_offset": self.flushed_offset,
            "acked_offset": self.acked_offset,
            "lag_chars": self.lag(),
            "retained_chars": sum(len(data) for _start, data in self._chunks),
        }


def ship_stream(journal) -> Optional[ShipStream]:
    """The ship stream ``journal`` feeds, or None: nothing streams it (no
    standby, or a promoted incarnation's fresh journal)."""
    stream = getattr(journal.on_append, "__self__", None)
    return stream if isinstance(stream, ShipStream) else None


class Shipper(Peer):
    """One incarnation's part of the warm standby: the primary's end of
    WAL shipping, one ship session at a time."""

    key = WarmStandby.key

    def __init__(self, core, standby: WarmStandby) -> None:
        self.proc = core.proc
        self.state = core.state
        self.cal = core.cal
        self.metrics = core.metrics
        self.service = core.service
        self.epoch = core.epoch
        self.journal = core.journal
        self.fence = core.fence
        self.standby = standby
        #: The stream this incarnation's journal feeds (None on a promoted
        #: incarnation: it has no standby of its own).
        self.stream = ship_stream(core.journal)
        #: The live ship session to the standby (None when disconnected).
        self._ship_conn = None
        #: Stream offset shipped on the current session.
        self._ship_sent = 0
        #: Triggered when the ship session drops (wakes the standby keeper).
        self._standby_down = None

    def start(self) -> None:
        """Serve the ship stream, heartbeat it, keep the standby process
        alive, and — on a promoted incarnation — fence the ex-primary.
        Deliberately, a promoted incarnation (no standby of its own) still
        listens and beats an empty session, about 210 kernel events per
        simulated minute: stopping it moves the ``chaos-standby`` pin, so
        it waits for a change of its own (ROADMAP item 11)."""
        proc = self.proc
        here = proc.machine.name
        # Ship-port sessions: the standby's hello, or a promoted peer's
        # fence notice.
        listener = proc.listen(ports.SHIP)
        proc.thread(
            serve_sessions(proc, listener, self._serve, "ship-session"),
            name="ship-acceptor",
        )
        proc.thread(self.heartbeater(), name="ship-heartbeater")
        if self.standby.host != here:
            proc.thread(self.standby_keeper(self.standby.host), name="standby-keeper")
        target = self.standby.fence_target
        if target and target != here:
            proc.thread(self.fencer(target), name="fencer")

    def stats(self, leased, metric_value) -> dict:
        """The ``replication`` block.  A promoted incarnation has no standby
        of its own (no stream), but its fencing and promotion counters
        still belong here."""
        ship = self.stream.stats() if self.stream is not None else {"enabled": False}
        return {
            **ship,
            "sessions": metric_value("ship.sessions"),
            "frames": metric_value("ship.frames"),
            "snapshots": metric_value("ship.snapshots"),
            "resends": metric_value("ship.resends"),
            "promotions": metric_value("broker.promotions"),
            "demotions": metric_value("broker.demotions"),
            "fencing_rejections": metric_value("fencing.rejections"),
            "double_grants": metric_value("fencing.double_grants"),
        }

    def standby_keeper(self, host):
        """Spawn the warm standby on ``host`` and respawn it whenever its
        ship session drops (the same keeper discipline as daemons)."""

        def arm(_host, down):
            self._standby_down = down

        return keep_respawned(
            self, host, ("rbstandby", self.proc.machine.name), arm,
            "broker.standby_restarts", "standby_restart",
        )

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

    def _serve(self, conn):
        """Serve one ship session: resume or re-baseline the stream, then
        drain frames as the journal flushes and trim on acks."""
        journal = self.journal
        stream = self.stream
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
        if kind != "ship_hello" or stream is None:
            conn.close()
            return
        self._ship_conn = conn
        self.metrics.counter("ship.sessions").inc()
        acked = int(first.get("acked", 0))
        resumable = (
            int(first.get("stream", -1)) == stream.id
            and acked <= stream.flushed_offset
            and stream.pending(acked) is not None
        )
        if resumable:
            # The standby holds a prefix of this very stream: trim to its
            # ack and resend whatever it missed.
            stream.note_ack(acked)
            self._ship_sent = acked
            if stream.flushed_offset > acked:
                self.metrics.counter("ship.resends").inc()
        else:
            # Different stream (a new incarnation) or a gap past the
            # retained window: re-baseline with a full-state snapshot at
            # the current flushed offset.
            journal.flush(force=True)
            self._ship_sent = stream.flushed_offset
            stream.note_ack(self._ship_sent)
            self.metrics.counter("ship.snapshots").inc()
            protocol.try_send(
                conn,
                protocol.ship_snapshot(
                    stream.id,
                    self._ship_sent,
                    snapshot_state(self.state),
                    self.epoch,
                ),
            )
        stream.set_kick(self._drain)
        self._drain()
        try:
            while True:
                msg = yield conn.recv()
                if self._ship_conn is not conn:
                    return  # superseded by a fresh session
                if (
                    msg.get("type") == "ship_ack"
                    and int(msg.get("stream", -1)) == stream.id
                ):
                    stream.note_ack(int(msg.get("acked", 0)))
                    self._drain()
        except ConnectionClosed:
            pass
        conn.close()
        if self._ship_conn is conn:
            self._ship_conn = None
            stream.set_kick(None)
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
        stream = self.stream
        if conn is None:
            return
        while self._ship_sent < stream.flushed_offset:
            if (
                self._ship_sent - stream.acked_offset
                >= self.cal.ship_window_chars
            ):
                self.metrics.counter("ship.window_stalls").inc()
                return  # window full: the next ack re-kicks the drain
            pending = stream.pending(self._ship_sent)
            if not pending:
                return
            start, data = pending[0]
            if not protocol.try_send(
                conn, protocol.ship_frame(stream.id, start, data)
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


def make_standby_main(standby: WarmStandby):
    """Bind the ``rbstandby`` program body to its :class:`WarmStandby`."""
    service = standby.service

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
            standby.promote(
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


# -- the standby's fault kinds (``repro.faults`` exports them) ---------------


def _standby_of(cluster) -> Optional[WarmStandby]:
    """The configured standby of the cluster's broker (the first of its
    peers), or None."""
    standby = cluster.broker.peers[0] if cluster.broker is not None else None
    return standby if standby is not None and standby.host is not None else None


@dataclass(frozen=True)
class StandbyCrash:
    """SIGKILL the warm-standby replica process at ``at``.

    Not host-targeted: the service harness knows where its standby lives.
    The primary's standby keeper notices the dropped ship session and
    respawns it; the respawned replica resumes the stream from its locally
    persisted offset.  No-op on a cluster without a configured standby."""

    at: float

    kind = "standby_crash"

    def inject(self, injector) -> None:
        """The injector arm: SIGKILL every ``rbstandby`` on the standby's
        machine, if it is up."""
        standby = _standby_of(injector.cluster)
        if standby is None:
            return
        machine = injector.cluster.machines.get(standby.host)
        if machine is None or not machine.up:
            return
        for proc in machine.running("rbstandby"):
            proc.signal(SIGKILL)


@dataclass(frozen=True)
class ShipLinkPartition:
    """Cut just the primary↔standby link for ``duration`` seconds.

    The nastiest failure in the warm-standby design: both brokers stay up
    and both stay reachable from the daemons, but the ship stream (and its
    heartbeats) goes dark — so the standby promotes *falsely* and the
    epoch-fencing protocol must resolve the resulting split brain.  No-op
    without a configured standby."""

    at: float
    duration: float = 12.0

    kind = "ship_link_partition"

    def inject(self, injector) -> None:
        """The injector arm: block the link and sever what crosses it."""
        if _standby_of(injector.cluster) is None:
            return
        # Cut the link between the two *well-known* addresses, not the
        # current broker host — after a promotion both roles sit on the
        # standby address and the cut is inert.
        a, b = injector.cluster.broker.broker_addresses[:2]
        injector.faults.add_link_block(a, b, self.duration)
        injector.network.sever(injector.faults.partitioned)
