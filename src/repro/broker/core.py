"""The network-wide broker process (resource-management layer, upper half).

One instance runs (with ordinary user privileges, as user ``rbroker``) on a
designated machine.  It:

* spawns a monitoring daemon on every managed machine **via plain rsh** and
  restarts daemons whose connection drops (paper §3: "The resource manager
  process spawns the daemon processes at startup and restarts them if they
  fail");
* ingests periodic daemon reports into :class:`~repro.broker.state.BrokerState`;
* accepts job registrations and machine requests from app processes;
* runs the pluggable :class:`~repro.policy.base.Policy` over the queue of
  pending requests whenever anything changes, granting idle machines or
  initiating revocations;
* enforces the owner's absolute priority on private machines.

The broker process body is produced by :func:`make_broker_main`, a closure
over the :class:`~repro.broker.service.BrokerService` so experiments can
inject policies and inspect state without any side-channel globals inside
program code.

Crash recovery (DESIGN.md §11): every grant is a **lease** renewed by daemon
heartbeats and swept by :meth:`_BrokerControl.lease_sweeper`; a restarted
broker incarnation (``service.epoch > 1``) reconstructs state from daemon
re-registration inventories and app session resumption (``resume``
messages), and an app connection EOF orphans the session for a grace period
instead of finishing the job outright, so an app that merely lost its link
can reattach.

Control-plane scaling (DESIGN.md §12): with ``BrokerState.use_indexes`` on
(the default), :meth:`_BrokerControl._schedule` is **dirty-driven** — it
evaluates only the pending requests whose candidate set may have changed
since their last evaluation, pulled from the state's dirty set in service
order; the sweepers iterate the state's expiry indexes instead of copying
the whole machine table; denial feasibility verdicts are memoized against
the machine-capability version; and delta heartbeats are folded in without
touching the record.  ``use_indexes = False`` preserves the original
evaluate-everything scheduler as the reference that
``tests/broker/test_sched_equivalence.py`` compares against.
"""

from __future__ import annotations

import zlib

from repro.broker import protocol
from repro.broker.journal import snapshot_state
from repro.broker.state import (
    Allocation,
    AllocationState,
    PendingRequest,
)
from repro.cluster import ports
from repro.cluster.network import EXPIRED
from repro.obs.timeseries import windowed_rate
from repro.os.errors import ConnectionClosed, ConnectionRefused, NoSuchHost
from repro.os.retry import connect_forever
from repro.os.signals import SIGKILL


def _safe_send(conn, message) -> bool:
    """Send unless the connection died under us; True if the message went
    out.  The broker serves many sessions from one process — one dead app
    must never take the scheduler down with it."""
    try:
        conn.send(message)
        return True
    except ConnectionClosed:
        return False


def make_broker_main(service):
    """Build the broker program body bound to ``service``."""

    def rbroker_main(proc):
        ctl = _BrokerControl(proc, service)
        service.control = ctl  # introspection handle for tools and tests
        if service.epoch > 1:
            # A restarted incarnation: trace the recovery window — it ends
            # when every managed daemon has re-reported (service.ready).
            recover = service.tracer.start(
                "broker.recover",
                actor="rbroker",
                host=proc.machine.name,
                epoch=service.epoch,
            )
            service.ready.add_callback(
                lambda ev: recover.end() if not recover.finished else None
            )
        listener = proc.listen(ports.BROKER)
        if service.replicated:
            # Warm-standby replication (DESIGN.md §16): serve the WAL ship
            # stream, heartbeat it, keep the standby process alive, and —
            # on a promoted incarnation — fence the ex-primary.
            ship_listener = proc.listen(ports.SHIP)
            proc.thread(ctl.ship_acceptor(ship_listener), name="ship-acceptor")
            proc.thread(ctl.ship_heartbeater(), name="ship-heartbeater")
            if service.standby_host != proc.machine.name:
                proc.thread(
                    ctl.standby_keeper(service.standby_host),
                    name="standby-keeper",
                )
            if (
                service.fence_target
                and service.fence_target != proc.machine.name
            ):
                proc.thread(ctl.fencer(service.fence_target), name="fencer")
        if service.shard is not None and service.shard.count > 1:
            # Federation (DESIGN.md §17): serve sibling shards' borrow
            # requests on the federation port.
            fed_listener = proc.listen(ports.FEDERATION)
            proc.thread(
                ctl.federation_acceptor(fed_listener),
                name="federation-acceptor",
            )
        for host in service.managed_hosts:
            proc.thread(ctl.daemon_keeper(host), name=f"daemon-keeper-{host}")
        proc.thread(ctl.liveness_sweeper(), name="liveness-sweeper")
        proc.thread(ctl.lease_sweeper(), name="lease-sweeper")
        if service.journal is not None:
            proc.thread(ctl.journal_flusher(), name="journal-flusher")
        while True:
            try:
                conn = yield listener.accept()
            except ConnectionClosed:
                return 0
            proc.thread(ctl.serve(conn), name="broker-session")

    return rbroker_main


class _BrokerControl:
    """All broker behaviour, shared across its connection handler threads."""

    def __init__(self, proc, service) -> None:
        self.proc = proc
        self.service = service
        self.state = service.state
        self.policy = service.policy
        self.cal = proc.machine.network.calibration
        self.tracer = service.tracer
        self.metrics = service.metrics
        # Captured per-incarnation, NOT read through the service: after a
        # standby promotion the service points at the *new* incarnation's
        # state/journal/epoch/events, and a partitioned ex-primary that kept
        # running must keep serving its own — that split is exactly what the
        # fencing protocol exists to resolve (DESIGN.md §16).
        self.epoch = service.epoch
        self.journal = service.journal
        self._ready = service.ready
        self._daemon_down = service._daemon_down
        #: Fencing on = a warm standby is configured: epoch-stamp grants and
        #: renewals toward daemons, serve the ship port.  Off (the default)
        #: leaves the wire protocol byte-identical to the pre-standby broker.
        self._fencing = service.fencing
        self._addresses = list(service.broker_addresses)
        #: host -> live daemon connection (for epoch-stamped sends).
        self._daemon_conns = {}
        #: The live ship session to the standby (None when disconnected).
        self._ship_conn = None
        #: Stream offset shipped on the current session.
        self._ship_sent = 0
        #: Triggered when the ship session drops (wakes the standby keeper).
        self._standby_down = None
        #: Set once this incarnation is fenced; all grants stop.
        self._demoted = False
        self._reqids = {}  # (jobid, reqid) -> PendingRequest (for dedupe)
        self._reports_seen = set()
        self._managed_set = frozenset(service.managed_hosts)
        #: (symbolic, rsl source, home host) -> (satisfiable?, capability
        #: version).  A verdict is valid while the capability universe it
        #: was computed against is unchanged; a stale entry is recomputed in
        #: place, so the memo never grows past the distinct request shapes.
        self._deny_memo = {}
        #: The armed liveness sweep timer (cancelled on re-arm, see
        #: :meth:`liveness_sweeper`).
        self._sweep_timer = None
        #: The armed lease sweep timer (same coalescing discipline).
        self._lease_timer = None
        #: Until this instant a restarted incarnation trusts daemon lease
        #: inventories enough to *adopt* allocations from them; -1.0 on a
        #: first-epoch broker (nothing to recover, adoption disabled).
        self._recovery_until = (
            proc.env.now + self.cal.broker_recovery_window
            if self.epoch > 1
            else -1.0
        )
        # Span bookkeeping lives here, NOT on the state dataclasses: putting
        # spans on PendingRequest would change its equality semantics, which
        # the pending-queue membership tests rely on.
        self._job_spans = {}  # jobid -> broker.job span
        self._request_spans = {}  # (jobid, reqid) -> broker.request span
        self._reclaim_spans = {}  # host -> broker.reclaim span
        # -- federation (DESIGN.md §17) --------------------------------------
        #: This broker's shard assignment, or None outside a federation.  A
        #: one-shard federation keeps every federated behaviour switched off
        #: so its timeline is byte-identical to a plain broker's.
        self._shard = service.shard
        self._fed_enabled = (
            service.shard is not None and service.shard.count > 1
        )
        #: (jobid, reqid) pairs with a live borrow loop, so one queued
        #: request never runs two concurrent loops.
        self._borrowing = set()
        #: Loaned-out hosts whose borrower already got a recall notice.
        self._recalled = set()

    # -- daemon management ----------------------------------------------------

    def daemon_keeper(self, host):
        """Spawn the daemon on ``host`` and respawn it whenever it dies.

        The daemon argv carries every well-known broker address (primary
        plus standby, when one is configured) so a daemon spawned before a
        failover finds whichever incarnation is alive afterwards.
        """
        while True:
            down = self.proc.env.event()
            self._daemon_down[host] = down
            rsh = self.proc.spawn(
                ["system:rsh", host, "rbdaemon", *self._addresses],
            )
            code = yield self.proc.wait(rsh)
            if code != 0:
                # Machine unreachable; back off and retry.
                yield self.proc.sleep(self.cal.daemon_report_interval)
                continue
            yield down  # triggered when the daemon's connection drops
            self.metrics.counter("broker.daemon_restarts").inc()
            self.service.log(event="daemon_restart", host=host)

    def standby_keeper(self, host):
        """Spawn the warm standby on ``host`` and respawn it whenever its
        ship session drops (the same keeper discipline as daemons: the
        *connection* is the liveness signal, never the process)."""
        while True:
            down = self.proc.env.event()
            self._standby_down = down
            rsh = self.proc.spawn(
                ["system:rsh", host, "rbstandby", self.proc.machine.name],
            )
            code = yield self.proc.wait(rsh)
            if code != 0:
                # Standby machine unreachable; back off and retry.
                yield self.proc.sleep(self.cal.daemon_report_interval)
                continue
            yield down  # triggered when the ship session drops
            self.metrics.counter("broker.standby_restarts").inc()
            self.service.log(event="standby_restart", host=host)

    # -- WAL shipping and fencing (DESIGN.md §16) -----------------------------

    def ship_acceptor(self, listener):
        """Accept ship-port sessions (the standby's hello, or a promoted
        peer's fence notice)."""
        while True:
            try:
                conn = yield listener.accept()
            except ConnectionClosed:
                return
            self.proc.thread(self._serve_ship(conn), name="ship-session")

    def _serve_ship(self, conn):
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
                self._demote(witnessed=witnessed, source="fence_notice")
            return
        if kind != "ship_hello" or journal is None or not journal.ship_enabled:
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
            _safe_send(
                conn,
                protocol.ship_snapshot(
                    journal.ship_stream,
                    self._ship_sent,
                    snapshot_state(self.state),
                    self.epoch,
                ),
            )
        journal.set_ship_kick(self._ship_drain)
        self._ship_drain()
        try:
            while True:
                msg = yield conn.recv()
                mtype = msg.get("type")
                if self._ship_conn is not conn:
                    return  # superseded by a fresh session
                if mtype == "ship_ack":
                    if int(msg.get("stream", -1)) == journal.ship_stream:
                        journal.note_ship_ack(int(msg.get("acked", 0)))
                        self._ship_drain()
                elif mtype == "fence_notice":
                    witnessed = int(msg.get("epoch", 0))
                    if witnessed > self.epoch:
                        self._demote(
                            witnessed=witnessed, source="fence_notice"
                        )
                        return
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

    def _ship_drain(self):
        """Push flushed-but-unshipped journal chars down the live ship
        session, whole retained chunks at a time (chunks are whole frames —
        the standby parses each one independently), bounded by the in-flight
        window."""
        conn = self._ship_conn
        journal = self.journal
        if conn is None or journal is None:
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
            if not _safe_send(
                conn, protocol.ship_frame(journal.ship_stream, start, data)
            ):
                return
            self._ship_sent = start + len(data)
            self.metrics.counter("ship.frames").inc()
            self.metrics.counter("ship.shipped_chars").inc(len(data))

    def ship_heartbeater(self):
        """Beat the ship session every ``standby_heartbeat_interval`` so the
        standby's silence clock only runs when the primary (or the path to
        it) is actually gone."""
        while True:
            yield self.proc.sleep(self.cal.standby_heartbeat_interval)
            if self._ship_conn is not None:
                _safe_send(
                    self._ship_conn,
                    protocol.ship_heartbeat(self.epoch, self.proc.env.now),
                )

    def fencer(self, target):
        """Chase the ex-primary with a fence notice (promoted incarnations
        only).  Daemons fence a reachable ex-primary through its own
        sessions; this covers the one nobody else can reach — an ex-primary
        isolated with zero daemons, still believing it is the broker."""
        conn = yield from connect_forever(
            self.proc,
            target,
            ports.SHIP,
            counter=self.metrics.counter("fencing.notice_retries"),
        )
        _safe_send(conn, protocol.fence_notice(self.epoch))
        try:
            # Hold the session open until the peer acts on the notice (its
            # demotion closes the connection).
            yield conn.recv()
        except ConnectionClosed:
            pass
        conn.close()

    def _demote(self, witnessed, source, host=None) -> None:
        """Fenced: a higher epoch exists, so this incarnation must stop
        granting *now*.  Process death is the simplest correct way — every
        session, sweeper and keeper dies with it, and grants already sent
        are bounded by their leases."""
        if self._demoted:
            return
        self._demoted = True
        self.metrics.counter("broker.demotions").inc()
        self.service.log(
            event="broker_demoted",
            epoch=self.epoch,
            witnessed=witnessed,
            source=source,
            host=host,
        )
        self.proc.signal(SIGKILL)

    # -- federation: cross-shard lease borrowing (DESIGN.md §17) --------------

    def federation_acceptor(self, listener):
        """Accept sibling shards' sessions on the federation port."""
        while True:
            try:
                conn = yield listener.accept()
            except ConnectionClosed:
                return
            self.proc.thread(
                self._serve_federation(conn), name="federation-session"
            )

    def _serve_federation(self, conn):
        """Serve one sibling session: a borrow request (replied to on the
        same connection) or a one-way loan-lifecycle notice."""
        try:
            msg = yield conn.recv()
        except ConnectionClosed:
            conn.close()
            return
        kind = msg.get("type")
        if kind == "borrow_request":
            yield from self._serve_borrow(conn, msg)
        elif kind == "borrow_release":
            yield from self._serve_borrow_release(msg)
        elif kind == "borrow_recall":
            yield from self._serve_borrow_recall(msg)
        conn.close()

    def _serve_borrow(self, conn, msg):
        """Donor side of a loan: place a sibling's request on one of this
        shard's idle machines, if any fits.

        A successful pick is allocated *before* the reply leaves — state
        ``MIGRATING``, the borrower's jobid, one ordinary lease TTL — and
        the grant is installed on the hosting daemon under this
        incarnation's epoch: the same fencing discipline as a local grant,
        so the daemon's double-grant audit covers loans too.  The lease
        then renews from the daemon's inventory once the borrower's subapp
        lands, and expires (reclaiming the loan) if it never does; the
        borrower is NOT trusted to renew, so a dead borrower can never pin
        a donor machine for longer than one TTL."""
        yield self.proc.sleep(self.cal.broker_decision)
        borrower = int(msg["shard"])
        jobid = int(msg["jobid"])
        symbolic = msg["symbolic"]
        rsl_text = msg.get("rsl", "")
        adaptive = bool(msg.get("adaptive"))
        record = (
            None
            if self._demoted
            else self.state.best_idle_for_loan(symbolic, rsl_text, adaptive)
        )
        if record is None:
            self.service.federation_counters["loan_refusals"] += 1
            self.metrics.counter("federation.loan_refusals").inc()
            _safe_send(
                conn,
                protocol.borrow_reply(
                    ok=False,
                    satisfiable=self.state.loan_satisfiable(
                        symbolic, rsl_text, adaptive
                    ),
                    reported=self.state.all_reported(
                        self.service.managed_hosts
                    ),
                    shard=self._shard.index,
                ),
            )
            return
        now = self.proc.env.now
        allocation = self.state.allocate(
            record.host,
            jobid,
            firm=bool(msg.get("firm")),
            now=now,
            lease_expires_at=now + self.cal.lease_ttl,
        )
        allocation.state = AllocationState.MIGRATING
        allocation.loaned_to = borrower
        journal = self.state.journal
        if journal is not None:
            journal.record(
                {
                    "op": "loan",
                    "host": record.host,
                    "jobid": jobid,
                    "to": borrower,
                }
            )
        self.service.federation_counters["loans_out"] += 1
        self.metrics.counter("federation.loans_out").inc()
        self.service.log(
            event="loan_out", host=record.host, jobid=jobid, to_shard=borrower
        )
        daemon = self._daemon_conns.get(record.host)
        if daemon is not None:
            _safe_send(
                daemon,
                protocol.grant_install(
                    jobid, int(msg.get("reqid", -1)), self.epoch
                ),
            )
        _safe_send(
            conn,
            protocol.borrow_reply(
                ok=True,
                host=record.host,
                platform=record.platform,
                kind=record.kind,
                shard=self._shard.index,
            ),
        )

    def _serve_borrow_release(self, msg):
        """Donor side: the borrower returned a loan — free the machine.

        Stale-safe: the notice names the loan's jobid, so one that raced
        with lease expiry (the machine possibly re-loaned or granted again
        since) matches nothing and is ignored."""
        host = str(msg["host"])
        jobid = int(msg["jobid"])
        record = self.state.machines.get(host)
        allocation = record.allocation if record is not None else None
        if (
            allocation is None
            or allocation.state is not AllocationState.MIGRATING
            or allocation.jobid != jobid
        ):
            return
        self.state.release(host)
        self._recalled.discard(host)
        self.metrics.counter("federation.loan_returns").inc()
        self.service.log(
            event="loan_release",
            host=host,
            jobid=jobid,
            from_shard=int(msg.get("shard", -1)),
        )
        yield from self._schedule()

    def _serve_borrow_recall(self, msg):
        """Borrower side: the donor recalled a loan (owner at the console,
        or the donor reclaimed a leak).

        With a live holder the machine is revoked from its app exactly
        like an owner reclaim; the release then travels the ordinary
        return path.  With no live holder (orphaned or pruned job) the
        borrowed record is dropped on the spot."""
        host = str(msg["host"])
        jobid = int(msg["jobid"])
        record = self.state.machines.get(host)
        if record is None or record.borrowed_from is None:
            return
        allocation = record.allocation
        job = self.state.jobs.get(jobid)
        if (
            allocation is not None
            and allocation.jobid == jobid
            and allocation.state is AllocationState.ACTIVE
            and job is not None
            and not job.done
            and job.conn is not None
        ):
            self.service.log(
                event="loan_recalled",
                host=host,
                jobid=jobid,
                from_shard=record.borrowed_from,
            )
            _safe_send(job.conn, protocol.revoke(host))
            return
        donor = record.borrowed_from
        if allocation is not None:
            self.state.release(host)
            self._forget_loan(host, jobid, donor)
        else:
            self.state.forget_machine(host)
        yield from self._schedule()

    def _forget_loan(self, host, jobid, donor) -> None:
        """Borrower side: drop a released borrowed record and send the
        donor a best-effort return notice (a partitioned donor misses it
        and reclaims the loan through lease expiry instead)."""
        self.state.forget_machine(host)
        self.service.federation_counters["returns"] += 1
        self.metrics.counter("federation.returns").inc()
        self.service.log(
            event="loan_returned", host=host, jobid=jobid, to_shard=donor
        )
        self.proc.thread(
            self._fed_notify(
                donor, protocol.borrow_release(self._shard.index, host, jobid)
            ),
            name=f"borrow-return-{host}",
        )

    def _end_loan(self, host, allocation, outcome) -> None:
        """Donor side: a loan ended without the borrower's release (lease
        leak or machine death): free the machine and send the borrower a
        best-effort recall so it drops its side too."""
        borrower = allocation.loaned_to
        jobid = allocation.jobid
        self.state.release(host)
        self._recalled.discard(host)
        self.metrics.counter("federation.loans_reclaimed").inc()
        self.service.log(
            event="loan_reclaimed",
            host=host,
            jobid=jobid,
            to_shard=borrower,
            outcome=outcome,
        )
        if borrower is not None and self._fed_enabled:
            self.proc.thread(
                self._fed_notify(
                    borrower, protocol.borrow_recall(host, jobid)
                ),
                name=f"loan-recall-{host}",
            )

    def _fed_notify(self, shard, message):
        """Dial one sibling shard's federation port and deliver a one-way
        notice, best-effort: a partitioned or down sibling misses it and
        the loan self-heals through lease expiry instead."""
        host = self._shard.broker_hosts[shard]
        try:
            conn = yield self.proc.connect(host, ports.FEDERATION)
        except (ConnectionRefused, NoSuchHost):
            self.metrics.counter("federation.notify_failures").inc()
            return
        if _safe_send(conn, message):
            # Hold until the sibling closes (its handler is done) so the
            # notice is never torn down in flight; the timer bounds a peer
            # partitioned mid-session.
            try:
                yield conn.recv_or_deadline(self.cal.federation_rpc_timeout)
            except ConnectionClosed:
                pass
        conn.close()

    def _maybe_borrow(self, job, request, hint=None) -> None:
        """Federated variant of the deny decision: before giving up on a
        request the local shard cannot place, try to borrow a machine from
        the sibling shards.

        Spawns at most one borrow loop per queued request.  The plain
        denial still exists — the loop issues it only on conclusive
        evidence that no shard could *ever* satisfy the request, so
        federation keeps the single-broker deny semantics stretched
        across all shards."""
        if request not in self.state.pending:
            return  # already granted (or reclaimed-for) by the local pass
        if hint is not None:
            request.shard_hint = int(hint) % self._shard.count
        key = (request.jobid, request.reqid)
        if key in self._borrowing:
            return
        self._borrowing.add(key)
        self.proc.thread(
            self._borrow_for(job, request),
            name=f"borrow-{request.jobid}-{request.reqid}",
        )

    def _borrow_for(self, job, request):
        """Borrow loop for one queued request.

        Runs while the request stays queued with no local prospect: each
        round walks the sibling ring (starting at the request's locality
        hint) until some shard lends a machine or all refuse.  Between
        rounds it sleeps ``federation_borrow_retry`` — roughly one daemon
        report interval, so newly idle donor machines are visible by the
        next ask."""
        key = (request.jobid, request.reqid)
        interval = self.cal.federation_borrow_retry
        try:
            while True:
                if (
                    request not in self.state.pending
                    or request.reserved_host is not None
                    or job.done
                    or job.conn is None
                    or self._demoted
                ):
                    return
                if self.state.all_reported(self.service.managed_hosts):
                    if self.state.best_idle(request) is None:
                        verdict = yield from self._borrow_round(job, request)
                        if verdict == "granted":
                            return
                        if verdict == "hopeless" and not self._satisfiable(
                            job, request.symbolic
                        ):
                            # Conclusively unsatisfiable on every shard.
                            self._deny_request(job, request)
                            return
                yield self.proc.sleep(interval)
        finally:
            self._borrowing.discard(key)

    def _borrow_round(self, job, request):
        """One pass over the sibling ring.

        Returns ``granted`` when a loan was adopted (or the request
        resolved some other way mid-round), ``hopeless`` when every
        sibling conclusively refused — answered, fully reported, and the
        request unsatisfiable there even in the best case — and ``retry``
        otherwise (somebody was unreachable, silent, or merely busy)."""
        count = self._shard.count
        start = request.shard_hint
        if start is None or not 0 <= start < count:
            start = zlib.crc32(request.symbolic.encode()) % count
        hopeless = True
        for step in range(count):
            shard = (start + step) % count
            if shard == self._shard.index:
                continue
            if (
                request not in self.state.pending
                or request.reserved_host is not None
                or job.done
                or job.conn is None
            ):
                return "granted"  # resolved while this round was running
            reply = yield from self._borrow_rpc(shard, job, request)
            if reply is None:
                hopeless = False  # unreachable sibling: evidence incomplete
                continue
            if reply.get("ok"):
                if self._adopt_borrowed(job, request, reply):
                    return "granted"
                # The request resolved while the RPC was in flight: hand
                # the loaned machine straight back to its donor.
                self.proc.thread(
                    self._fed_notify(
                        shard,
                        protocol.borrow_release(
                            self._shard.index,
                            str(reply["host"]),
                            request.jobid,
                        ),
                    ),
                    name=f"borrow-return-{reply['host']}",
                )
                return "granted"
            if not reply.get("reported") or reply.get("satisfiable"):
                hopeless = False
        return "hopeless" if hopeless else "retry"

    def _borrow_rpc(self, shard, job, request):
        """One borrow request/reply exchange with a sibling; None when the
        sibling is unreachable, silent past the RPC deadline, or answered
        garbage."""
        host = self._shard.broker_hosts[shard]
        self.service.federation_counters["forwards"] += 1
        self.metrics.counter("federation.forwards").inc()
        try:
            conn = yield self.proc.connect(host, ports.FEDERATION)
        except (ConnectionRefused, NoSuchHost):
            return None
        reply = None
        if _safe_send(
            conn,
            protocol.borrow_request(
                self._shard.index,
                request.jobid,
                request.symbolic,
                job.rsl.source,
                job.adaptive,
                request.firm,
                request.reqid,
            ),
        ):
            try:
                answer = yield conn.recv_or_deadline(
                    self.cal.federation_rpc_timeout
                )
                if answer is not EXPIRED:
                    reply = answer
            except ConnectionClosed:
                pass
        conn.close()
        if reply is not None and reply.get("type") != "borrow_reply":
            return None
        return reply

    def _adopt_borrowed(self, job, request, reply) -> bool:
        """Install a sibling's loan as the grant for ``request``.

        The borrowed machine joins this shard's table fully formed —
        created, flagged ``borrowed_from``, allocated and touched with no
        intervening yield — so no scheduler pass can ever see it idle and
        it never joins the general candidate pool.  Its lease is infinite
        on the borrower: renewal flows to the *donor* (the machine's
        daemon reports there), which bounds the loan and recalls it if
        this shard dies.  No ``grant_install`` is sent from here either —
        the donor already installed the grant under its own epoch, the
        one the machine's daemon actually witnesses."""
        if (
            request not in self.state.pending
            or request.reserved_host is not None
            or job.done
            or job.conn is None
            or self._demoted
        ):
            return False
        host = str(reply["host"])
        if host in self.state.machines:
            return False  # never shadow a machine this shard already knows
        now = self.proc.env.now
        record = self.state.add_machine(host)
        record.borrowed_from = int(reply.get("shard", -1))
        if record.platform != reply.get("platform", ""):
            record.platform = reply["platform"]
        if record.kind != reply.get("kind", "public"):
            record.kind = reply["kind"]
        self.state.allocate(host, request.jobid, firm=request.firm, now=now)
        record.touch(now)
        self.state.pending.remove(request)
        self._reqids.pop((request.jobid, request.reqid), None)
        waited = now - request.arrived_at
        span = self._request_spans.pop((request.jobid, request.reqid), None)
        if span is not None:
            span.end(
                outcome="granted",
                host=host,
                waited=waited,
                borrowed_from=record.borrowed_from,
            )
        self.metrics.counter("broker.grants").inc()
        self.metrics.counter("federation.cross_shard_grants").inc()
        self.service.federation_counters["cross_shard_grants"] += 1
        self.metrics.histogram("broker.grant_wait").observe(waited)
        self.metrics.gauge("broker.pending_requests").dec()
        self.service.log(
            event="grant",
            jobid=request.jobid,
            reqid=request.reqid,
            host=host,
            waited=waited,
            borrowed_from=record.borrowed_from,
        )
        _safe_send(
            job.conn,
            protocol.attach_trace(
                protocol.machine_grant(request.reqid, host),
                span.context if span is not None else None,
            ),
        )
        return True

    # -- liveness detection ---------------------------------------------------

    def liveness_sweeper(self):
        """Declare machines dead after a deadline of silence.

        A healthy machine's daemon reports every ``daemon_report_interval``;
        even a killed daemon is respawned by the keeper within roughly one
        interval, so sustained silence past ``liveness_deadline`` means the
        *machine* (or its network path) is gone, not just its daemon.  Dead
        machines become ineligible and whatever they held is reclaimed
        through the ordinary revocation path, so every substrate adapts
        exactly as it does for an owner reclaim.

        The per-machine heartbeat deadlines (``last_seen + deadline``) are
        coalesced into a *single* sweep timer armed at the earliest one: the
        broker wakes exactly when some machine could first be overdue rather
        than polling every report interval, and scans only at those instants.
        Deadlines only ever move later (a report refreshes ``last_seen``),
        so a wake armed from stale knowledge fires early, finds nothing
        overdue, and re-arms — never late.  A superseded timer is cancelled,
        not abandoned (kernel lazy deletion reclaims its heap entry).
        """
        deadline = self.cal.liveness_deadline
        interval = self.cal.daemon_report_interval
        while True:
            # One pass both collects the already-overdue machines and finds
            # the earliest future deadline to arm the next wake at.
            now = self.proc.env.now
            due = None
            overdue = []
            tracked = self.state.tracked_records()
            self.metrics.counter("broker.sweep_scans").inc(len(tracked))
            for record in tracked:
                if record.dead or record.last_seen < 0.0:
                    continue  # already handled / never heard from at all
                if record.borrowed_from is not None:
                    # A borrowed machine's daemon reports to its donor
                    # shard; the donor's sweepers own its liveness.
                    continue
                if now - record.last_seen > deadline:
                    overdue.append(record)
                else:
                    candidate = record.last_seen + deadline
                    if due is None or candidate < due:
                        due = candidate
            for record in overdue:
                if record.dead or record.last_seen < 0.0:
                    continue  # a report raced in while marking the others
                silence = self.proc.env.now - record.last_seen
                if silence > deadline:
                    yield from self._mark_machine_dead(record, silence)
            if due is None:
                # Nothing reporting yet: re-check once a report could exist.
                wait = interval
            else:
                # The epsilon lands the wake strictly *past* the deadline so
                # `silence > deadline` holds for a machine exactly due.
                wait = max(due - self.proc.env.now, 0.0) + 1e-6
            timer = self.proc.sleep(wait)
            self._sweep_timer = timer
            try:
                yield timer
            finally:
                if self._sweep_timer is timer:
                    self._sweep_timer = None
                timer.cancel()  # no-op after firing; frees it on interrupt

    # -- journal flushing -----------------------------------------------------

    def journal_flusher(self):
        """Drain the journal's coalesced notes (machine views, lease
        renewals) to disk every ``journal_flush_interval``.

        Structural ops are flushed write-through at record time, so this
        thread bounds only the staleness of the high-rate noise; it dies
        with the broker process, which is exactly the page-cache-loss
        semantics :meth:`BrokerJournal.discard_unflushed` models."""
        journal = self.journal
        interval = self.cal.journal_flush_interval
        while True:
            yield self.proc.sleep(interval)
            journal.flush()

    def _mark_machine_dead(self, record, silence):
        record.dead = True
        record.last_report = -1.0  # ineligible until it reports again
        span = self.tracer.start(
            "broker.machine_dead",
            actor="rbroker",
            host=record.host,
            silent_for=silence,
        )
        self.metrics.counter("broker.machines_marked_dead").inc()
        self.service.log(
            event="machine_dead", host=record.host, silent_for=silence
        )
        allocation = record.allocation
        if (
            allocation is not None
            and allocation.state is AllocationState.MIGRATING
        ):
            # A loaned machine died: free it donor-side and recall the
            # borrower (whose app sees the severed subapp regardless).
            self._end_loan(record.host, allocation, outcome="machine_dead")
        elif allocation is not None and allocation.state is AllocationState.ACTIVE:
            victim = self.state.jobs.get(allocation.jobid)
            if victim is not None and not victim.done and victim.conn is not None:
                # Reclaim via the normal revocation path: the victim's subapp
                # connection was severed by the failure, so the app releases
                # as soon as it processes the revoke.
                self._start_reclaim(record.host, claimed_by=None)
            else:
                self.state.release(record.host)
        # RECLAIMING allocations need nothing extra: a revoke is already in
        # flight and the release arrives once the victim notices the severed
        # subapp connection.
        span.end()
        yield from self._schedule()

    # -- lease expiry ---------------------------------------------------------

    def lease_sweeper(self):
        """Expire grants whose leases stopped being renewed.

        The liveness sweeper catches machines that go silent; this sweeper
        catches the dual failure — the machine is fine but the *grant
        holder* is gone (its app never EOF'd, e.g. the whole session state
        died with a previous broker incarnation and nobody resumed it).
        Daemon heartbeats renew the lease of any allocation whose jobid has
        a live subapp on the machine; an allocation past its
        ``lease_expires_at`` is reclaimed so the machine becomes grantable
        again.

        Same coalesced-timer discipline as :meth:`liveness_sweeper`: a
        single cancellable timer armed at the earliest expiry, re-armed
        after every pass, idling one TTL when no lease is outstanding (a new
        grant always expires at least one TTL out, so an idle wake is never
        late).
        """
        ttl = self.cal.lease_ttl
        while True:
            now = self.proc.env.now
            due = None
            expired = []
            leased = self.state.leased_records()
            self.metrics.counter("broker.sweep_scans").inc(len(leased))
            for record in leased:
                allocation = record.allocation
                if allocation is None or record.dead:
                    continue  # the liveness path owns dead machines
                if self._lease_overdue(record, now):
                    expired.append(record)
                elif allocation.lease_expires_at != float("inf"):
                    if due is None or allocation.lease_expires_at < due:
                        due = allocation.lease_expires_at
            for record in expired:
                if not self._lease_overdue(record, self.proc.env.now):
                    continue  # renewed or resolved while expiring the others
                yield from self._expire_lease(record)
            wait = (
                ttl
                if due is None
                else max(due - self.proc.env.now, 0.0) + 1e-6
            )
            timer = self.proc.sleep(wait)
            self._lease_timer = timer
            try:
                yield timer
            finally:
                if self._lease_timer is timer:
                    self._lease_timer = None
                timer.cancel()

    def _lease_overdue(self, record, now) -> bool:
        """Whether the machine's lease has run out with nobody to renew it.

        An ACTIVE allocation past its expiry is always overdue.  A
        RECLAIMING one is overdue only when its victim has no live session:
        the revoke went (or would go) into the void, so nobody will ever
        send the release — without this the machine would stay RECLAIMING
        forever, invisible to both sweepers."""
        allocation = record.allocation
        if allocation is None or allocation.lease_expires_at > now:
            return False
        if allocation.state is AllocationState.ACTIVE:
            return True
        if allocation.state is AllocationState.RECLAIMING:
            victim = self.state.jobs.get(allocation.jobid)
            return victim is None or victim.done or victim.conn is None
        if allocation.state is AllocationState.MIGRATING:
            # A loan renews from the machine's own daemon inventory (the
            # borrower's jobid appears once its subapp lands); expiry means
            # the loan leaked and the donor takes the machine back.
            return True
        return False

    def _expire_lease(self, record):
        allocation = record.allocation
        span = self.tracer.start(
            "lease.expire",
            parent=self._job_spans.get(allocation.jobid),
            actor="rbroker",
            host=record.host,
            jobid=allocation.jobid,
            state=allocation.state.value,
        )
        self.metrics.counter("leases.expired").inc()
        self.service.log(
            event="lease_expired", host=record.host, jobid=allocation.jobid
        )
        victim = self.state.jobs.get(allocation.jobid)
        if allocation.state is AllocationState.MIGRATING:
            # A leaked loan: reclaim the machine and recall the borrower.
            self._end_loan(record.host, allocation, outcome="lease_expired")
        elif (
            allocation.state is AllocationState.ACTIVE
            and victim is not None
            and not victim.done
            and victim.conn is not None
        ):
            # The holder is still attached: reclaim through the ordinary
            # revocation path so its substrate adapts gracefully.
            self._start_reclaim(record.host, claimed_by=None)
        else:
            # Holder unknown or unreachable: nobody can release, free it.
            released = self.state.release(record.host)
            reclaim = self._reclaim_spans.pop(record.host, None)
            if reclaim is not None:
                reclaim.end(outcome="lease_expired")
            claim = released.claimed_by if released else None
            if claim is not None:
                # Un-reserve the claiming request so the scheduler pass
                # below can satisfy it (with this very machine, usually).
                claim.reserved_host = None
        span.end()
        yield from self._schedule()

    # -- connection dispatch -------------------------------------------------

    def serve(self, conn):
        try:
            first = yield conn.recv()
        except ConnectionClosed:
            conn.close()
            return
        kind = first.get("type")
        if kind == "daemon_hello":
            yield from self._serve_daemon(conn, first)
        elif kind == "submit":
            yield from self._serve_app(conn, first)
        elif kind == "resume":
            yield from self._serve_resume(conn, first)
        elif kind == "status":
            _safe_send(conn, protocol.status_reply(self.state.summary()))
            conn.close()
        elif kind == "stats":
            _safe_send(conn, protocol.stats_reply(self.stats()))
            conn.close()
        elif kind == "halt_job":
            jobid = int(first.get("jobid", -1))
            job = self.state.jobs.get(jobid)
            ok = job is not None and not job.done and job.conn is not None
            if ok:
                _safe_send(job.conn, protocol.halt())
                self.service.log(event="halt_job", jobid=jobid)
            _safe_send(conn, protocol.halt_ack(jobid, ok))
            conn.close()
        else:
            conn.close()

    def stats(self) -> dict:
        """The live introspection snapshot served by the ``stats`` RPC.

        Read-only over state, counters and the service's online phase
        digests — no scans beyond the leased set, no simulation events, so
        polling it never perturbs the run being observed."""
        state = self.state
        metrics = self.metrics
        now = self.proc.env.now
        grants = metrics.counter("broker.grants")
        leased = state.leased_records()
        reclaiming = sum(
            1
            for record in leased
            if record.allocation is not None
            and record.allocation.state is AllocationState.RECLAIMING
        )
        scanned = state.machines_scanned
        journal = self.journal

        def metric_value(name: str) -> float:
            # Read without creating: a stats poll must not mint instruments
            # (that would change self-metering counts under observation).
            instrument = metrics._metrics.get(name)
            return instrument.value if instrument is not None else 0.0

        recovery = {
            "from_journal": metric_value("recovery.from_journal"),
            "from_reregistration": metric_value("recovery.from_reregistration"),
            "replayed_records": metric_value("recovery.replayed_records"),
            "conflicts": metric_value("recovery.conflicts"),
            "latency_seconds": metric_value("recovery.latency_seconds"),
        }
        if self.service.replicated:
            # A promoted incarnation has no standby of its own (shipping
            # off), but its fencing/promotion counters still belong here.
            ship = (
                journal.ship_stats()
                if journal is not None and journal.ship_enabled
                else {"enabled": False}
            )
            replication = {
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
        else:
            replication = {"enabled": False}
        if self._fed_enabled:
            borrowed = 0
            loaned = 0
            for record in leased:
                allocation = record.allocation
                if record.borrowed_from is not None:
                    borrowed += 1
                elif (
                    allocation is not None
                    and allocation.state is AllocationState.MIGRATING
                ):
                    loaned += 1
            federation = {
                "enabled": True,
                "shard": self._shard.index,
                "shards": self._shard.count,
                "owned_machines": len(state.machines) - borrowed,
                "borrowed_machines": borrowed,
                "loaned_machines": loaned,
                "fencing_rejections": metric_value("fencing.rejections"),
                "double_grants": metric_value("fencing.double_grants"),
                **self.service.federation_counters,
            }
        else:
            federation = {"enabled": False}
        heap = self.proc.env.heap_stats()
        kernel = {
            "events_processed": heap["processed"],
            "heap_high_water": heap["heap_high_water"],
        }
        return {
            "time": now,
            "kernel": kernel,
            "journal": journal.stats() if journal is not None else {"enabled": False},
            "replication": replication,
            "federation": federation,
            "recovery": recovery,
            "epoch": self.epoch,
            "pending": len(state.pending),
            "dirty_pending": state.dirty_pending_count(),
            "machines": len(state.machines),
            "machines_reported": state.reported_count(),
            "leased": len(leased),
            "reclaiming": reclaiming,
            "jobs": len(state.jobs),
            "jobs_done": sum(1 for job in state.jobs.values() if job.done),
            "grants": grants.value,
            "denials": metrics.counter("broker.denials").value,
            "revokes": metrics.counter("broker.revokes").value,
            "leases_adopted": metrics.counter("leases.adopted").value,
            "leases_expired": metrics.counter("leases.expired").value,
            "sessions_resumed": metrics.counter("sessions.resumed").value,
            "machines_scanned": scanned,
            "scans_per_grant": (
                scanned / grants.value if grants.value else 0.0
            ),
            "grant_rate": windowed_rate(grants.samples, now, window=60.0),
            "phases": self.service.phase_stats.summary(),
            "obs": {
                "tracer": self.tracer.self_stats(),
                "metrics": metrics.self_stats(),
            },
            "metrics": metrics.snapshot(),
        }

    # -- daemon sessions ----------------------------------------------------

    def _serve_daemon(self, conn, hello):
        host = hello["host"]
        record = self.state.add_machine(host)
        if hello.get("resumed"):
            self.metrics.counter("broker.daemon_reregistrations").inc()
            self.service.log(
                event="daemon_reregistered",
                host=host,
                leases=list(hello.get("leases", ())),
            )
        self._reconcile_recovered(record, hello.get("leases", ()))
        self._adopt_from_inventory(record, hello.get("leases", ()))
        self._daemon_conns[host] = conn
        if self._fencing:
            # Stamp the session with this incarnation's epoch; a daemon that
            # has witnessed a higher one answers with fence_reject, which
            # demotes us (DESIGN.md §16).
            _safe_send(conn, protocol.daemon_welcome(self.epoch))
        try:
            while True:
                msg = yield conn.recv()
                if msg.get("type") == "fence_reject":
                    self._demote(
                        witnessed=int(msg.get("witnessed", 0)),
                        source="fence_reject",
                        host=msg.get("host"),
                    )
                    return
                if msg.get("type") != "daemon_report":
                    continue
                was_reported = record.reported
                was_active = record.console_active
                was_dead = record.dead
                if msg.get("delta"):
                    # Delta beacon: nothing monitorable changed since the
                    # machine's last full report, so the retained record
                    # fields are exact — only the liveness clocks move and
                    # the stored lease inventory renews.  A record with no
                    # retained snapshot at all (its full report was lost in
                    # transit) cannot be reconstructed from a beacon; it
                    # waits for the next full report, which the daemon's
                    # full-every-N cadence bounds.
                    if record.last_seen < 0.0:
                        continue
                    record.touch(msg["time"])
                    if record.dead:
                        record.dead = False
                    leases = record.leases
                else:
                    record.update(msg["snapshot"])
                    record.leases = tuple(msg.get("leases", ()))
                    leases = record.leases
                    # A full report is a live inventory: cross-check any
                    # journal-recovered allocation against it.
                    self._reconcile_recovered(record, leases)
                if was_dead:
                    self.metrics.counter("broker.machine_rejoins").inc()
                    self.service.log(event="machine_rejoin", host=host)
                if leases or record.allocation is not None:
                    self._ingest_leases(record, leases)
                self._note_ready(host)
                self._owner_priority(record)
                # Scheduling is event-driven: most reports change nothing a
                # policy can act on, so only a machine appearing for the
                # first time or a console-activity flip triggers a pass.
                if not was_reported or record.console_active != was_active:
                    yield from self._schedule()
        except ConnectionClosed:
            conn.close()
            if self._daemon_conns.get(host) is conn:
                del self._daemon_conns[host]
            # Monitoring lost: the machine may be down.  Treat it as unknown
            # (ineligible) until a daemon reports again.
            record.last_report = -1.0
            down = self._daemon_down.get(host)
            if down is not None and not down.triggered:
                down.succeed()

    def _ingest_leases(self, record, leases) -> None:
        """Fold one report's lease list into the machine's allocation.

        A listed jobid matching the current allocation renews its lease
        (RECLAIMING included: a graceful shutdown in progress still has a
        live subapp and must not be swept mid-handover); with no allocation
        at all, the list can seed an adoption — but only inside a restarted
        incarnation's recovery window (see :meth:`_adopt_from_inventory`)."""
        allocation = record.allocation
        if allocation is not None and allocation.jobid in leases:
            allocation.lease_expires_at = (
                self.proc.env.now + self.cal.lease_ttl
            )
            allocation.recovered = False  # a live inventory confirms it
            journal = self.state.journal
            if journal is not None:
                journal.note_lease(record.host, allocation.lease_expires_at)
            if self._fencing:
                # Echo the renewal with our epoch stamp: a daemon holding a
                # higher witness fences us before the stale lease can matter.
                daemon = self._daemon_conns.get(record.host)
                if daemon is not None:
                    _safe_send(
                        daemon,
                        protocol.lease_renew(self.epoch, [allocation.jobid]),
                    )
        elif allocation is None:
            self._adopt_from_inventory(record, leases)

    def _reconcile_recovered(self, record, leases) -> None:
        """Cross-check a journal-recovered allocation against a live daemon
        inventory (hello or full report).

        Agreement — the recovered jobid in the machine's own lease list —
        confirms the allocation and clears its flag.  Disagreement resolves
        toward the live inventory (the daemon knows what actually runs on
        its machine; the journal knows what a dead broker *intended*): the
        recovered allocation is dropped, counted in ``recovery.conflicts``,
        and the machine becomes grantable again."""
        allocation = record.allocation
        if allocation is None or not allocation.recovered:
            return
        if allocation.jobid in set(int(j) for j in leases):
            allocation.recovered = False
            allocation.lease_expires_at = max(
                allocation.lease_expires_at,
                self.proc.env.now + self.cal.lease_ttl,
            )
            return
        if allocation.state is AllocationState.MIGRATING:
            # A recovered loan: its confirming signal — the borrower's
            # subapp in this inventory — may legitimately lag the crash
            # (the borrower's rsh could still be in flight), so never drop
            # it on disagreement; lease expiry bounds a loan that truly
            # died with the previous incarnation.
            return
        self._drop_recovered(record, trusted=sorted(int(j) for j in leases))

    def _drop_recovered(self, record, trusted) -> None:
        """Release a recovered allocation the live side disagrees with."""
        allocation = record.allocation
        self.metrics.counter("recovery.conflicts").inc()
        self.service.log(
            event="recovery_conflict",
            host=record.host,
            jobid=allocation.jobid,
            trusted=trusted,
        )
        released = self.state.release(record.host)
        reclaim = self._reclaim_spans.pop(record.host, None)
        if reclaim is not None:
            reclaim.end(outcome="recovery_conflict")
        claim = released.claimed_by if released else None
        if claim is not None:
            claim.reserved_host = None

    def _adopt_from_inventory(self, record, leases) -> None:
        """Adopt a pre-crash allocation a daemon inventory testifies to.

        Only a restarted incarnation inside its recovery window adopts:
        outside it, an unknown lease in a report is stale noise (e.g. a
        subapp the app is about to tear down), and a wrong adoption would
        merely block the host until the lease expired.  The lowest listed
        jobid wins when several are named — a deterministic pick so two
        same-seed runs reconstruct byte-identical state regardless of
        daemon re-registration order."""
        leases = sorted(int(j) for j in leases)
        if not leases or self.proc.env.now >= self._recovery_until:
            return
        now = self.proc.env.now
        fresh = record.allocation is None
        allocation = self.state.adopt_allocation(
            record.host,
            leases[0],
            now=now,
            lease_expires_at=now + self.cal.lease_ttl,
        )
        if allocation is None:
            self.service.log(
                event="lease_conflict", host=record.host, leases=leases
            )
            return
        if fresh:
            self.metrics.counter("leases.adopted").inc()
            self.service.log(
                event="lease_adopted", host=record.host, jobid=leases[0]
            )

    def _note_ready(self, host) -> None:
        if self._ready.triggered:
            return
        self._reports_seen.add(host)
        if self._reports_seen >= self._managed_set:
            self._ready.succeed()

    def _owner_priority(self, record) -> None:
        """Revoke an allocation when the machine's owner is at the console."""
        allocation = record.allocation
        if (
            record.console_active
            and allocation is not None
            and allocation.state is AllocationState.ACTIVE
            and self.policy.reclaim_on_owner_return(self.state, record)
        ):
            self.service.log(
                event="owner_reclaim", host=record.host, jobid=allocation.jobid
            )
            self._start_reclaim(record.host, claimed_by=None)
        elif (
            record.console_active
            and allocation is not None
            and allocation.state is AllocationState.MIGRATING
            and record.host not in self._recalled
        ):
            # Owner back on a loaned machine: recall the loan gracefully.
            # The donor does NOT release here — the loan ends through the
            # borrower's release (or lease expiry as the backstop), so the
            # machine is never grantable on two shards at once.
            self._recalled.add(record.host)
            self.service.federation_counters["recalls"] += 1
            self.metrics.counter("federation.recalls").inc()
            self.service.log(
                event="loan_recall",
                host=record.host,
                jobid=allocation.jobid,
                to_shard=allocation.loaned_to,
            )
            self.proc.thread(
                self._fed_notify(
                    allocation.loaned_to,
                    protocol.borrow_recall(record.host, allocation.jobid),
                ),
                name=f"loan-recall-{record.host}",
            )

    # -- app sessions --------------------------------------------------------

    def _serve_app(self, conn, submit_msg):
        job = self.state.register_job(
            user=submit_msg["user"],
            home_host=submit_msg["host"],
            rsl_text=submit_msg["rsl"],
            argv=submit_msg["argv"],
            adaptive_hint=bool(submit_msg.get("adaptive")),
        )
        job.conn = conn
        self._job_spans[job.jobid] = self.tracer.start(
            "broker.job",
            parent=protocol.trace_of(submit_msg),
            actor="rbroker",
            host=self.proc.machine.name,
            jobid=job.jobid,
            user=job.user,
        )
        self.metrics.counter("broker.submits").inc()
        self.service.log(
            event="submit",
            jobid=job.jobid,
            user=job.user,
            rsl=submit_msg["rsl"],
            argv=list(submit_msg["argv"]),
        )
        _safe_send(conn, protocol.submit_ack(job.jobid, epoch=self.epoch))
        yield from self._session_loop(job, conn)

    def _session_loop(self, job, conn):
        """Serve one app connection until the job finishes or the link dies.

        On EOF with the job unfinished the session is *orphaned*, not
        killed: the app may merely have lost its link (or be resuming after
        a broker restart found its old connection half-open), so the job
        gets ``session_resume_grace`` seconds to reattach before its
        holdings are freed."""
        try:
            while True:
                msg = yield conn.recv()
                yield from self._app_message(job, msg)
                if job.done:
                    break
        except ConnectionClosed:
            conn.close()
            if job.conn is conn and not job.done:
                job.conn = None
                yield from self._orphan_session(job)
            return
        conn.close()

    def _orphan_session(self, job):
        """Give a disconnected app a grace period to resume before the job
        is declared gone (then: requests dropped, holdings freed)."""
        self.metrics.counter("broker.sessions_orphaned").inc()
        self.service.log(event="session_orphaned", jobid=job.jobid)
        timer = self.proc.sleep(self.cal.session_resume_grace)
        try:
            yield timer
        finally:
            timer.cancel()
        if job.conn is None and not job.done:
            yield from self._finish_job(job, code=None)

    def _serve_resume(self, conn, msg):
        """Reattach an app session lost to a broker (or link) failure.

        The job keeps its original jobid.  Reconciliation order matters for
        the no-double-grant guarantee: first drop ACTIVE allocations the app
        no longer claims (their grant message died with the old link), then
        adopt everything it does claim, then requeue its unanswered
        requests — deduped against requests already queued — and only then
        run the scheduler."""
        jobid = int(msg["jobid"])
        span = self.tracer.start(
            "broker.resume",
            parent=protocol.trace_of(msg),
            actor="rbroker",
            jobid=jobid,
            epoch=self.epoch,
        )
        job = self.state.jobs.get(jobid)
        if job is None:
            job = self.state.adopt_job(
                jobid=jobid,
                user=msg["user"],
                home_host=msg["host"],
                rsl_text=msg["rsl"],
                argv=msg["argv"],
                adaptive_hint=bool(msg.get("adaptive")),
            )
            self._job_spans[jobid] = self.tracer.start(
                "broker.job",
                parent=protocol.trace_of(msg),
                actor="rbroker",
                host=self.proc.machine.name,
                jobid=jobid,
                user=job.user,
                resumed=True,
            )
        if job.done:
            _safe_send(
                conn, protocol.resume_ack(jobid, self.epoch, ok=False)
            )
            span.end(outcome="rejected")
            conn.close()
            return
        old = job.conn
        job.conn = conn
        if old is not None and old is not conn:
            # The previous session thread sees EOF, notices it is no longer
            # job.conn, and exits without orphaning.
            old.close()
        now = self.proc.env.now
        claimed = set(str(h) for h in msg.get("holdings", ()))
        for allocation in sorted(
            self.state.allocations_of(jobid), key=lambda a: a.host
        ):
            if (
                allocation.host not in claimed
                and allocation.state is AllocationState.ACTIVE
            ):
                # Granted by a previous incarnation (or into a severed
                # link) and never consumed by the app: take it back.
                self.state.release(allocation.host)
                self.service.log(
                    event="stale_allocation_dropped",
                    host=allocation.host,
                    jobid=jobid,
                )
        for host in sorted(claimed):
            adopted = self.state.adopt_allocation(
                host, jobid, now=now, lease_expires_at=now + self.cal.lease_ttl
            )
            if adopted is None:
                record = self.state.machines.get(host)
                existing = record.allocation if record is not None else None
                if existing is not None and existing.recovered:
                    # A journal-recovered allocation against a live app's
                    # claim: the live side wins (the recovered holder may
                    # not even exist any more).
                    self._drop_recovered(record, trusted=[jobid])
                    self.state.adopt_allocation(
                        host,
                        jobid,
                        now=now,
                        lease_expires_at=now + self.cal.lease_ttl,
                    )
                else:
                    self.service.log(
                        event="lease_conflict", host=host, leases=[jobid]
                    )
        for allocation in self.state.allocations_of(jobid):
            if allocation.state is AllocationState.RECLAIMING:
                # The revoke sent to the old session died with it: repeat it
                # so the reclamation can complete.
                _safe_send(conn, protocol.revoke(allocation.host))
        for entry in msg.get("pending", ()):
            reqid = int(entry["reqid"])
            if (jobid, reqid) in self._reqids:
                continue  # still queued from this very incarnation
            request = PendingRequest(
                reqid=reqid,
                jobid=jobid,
                symbolic=entry["symbolic"],
                firm=bool(entry["firm"]),
                arrived_at=now,
            )
            self.state.pending.append(request)
            self._reqids[(jobid, reqid)] = request
            self._request_spans[(jobid, reqid)] = self.tracer.start(
                "broker.request",
                parent=self._job_spans.get(jobid),
                actor="rbroker",
                jobid=jobid,
                reqid=reqid,
                symbolic=request.symbolic,
                firm=request.firm,
                resubmitted=True,
            )
            self.metrics.gauge("broker.pending_requests").inc()
            self.service.log(
                event="machine_request",
                jobid=jobid,
                reqid=reqid,
                symbolic=request.symbolic,
                firm=request.firm,
                resubmitted=True,
            )
        self.metrics.counter("sessions.resumed").inc()
        self.service.log(
            event="session_resumed",
            jobid=jobid,
            epoch=self.epoch,
            holdings=sorted(claimed),
            pending=len(msg.get("pending", ())),
        )
        _safe_send(
            conn, protocol.resume_ack(jobid, self.epoch, ok=True)
        )
        span.end(outcome="resumed")
        # Requests that waited out the orphan period were skipped (not
        # evaluated) by every pass in between: now that grants are
        # deliverable again they must be re-examined.
        self.state.mark_job_requests_dirty(jobid)
        yield from self._schedule()
        if self._fed_enabled:
            # Requeued requests lost their borrow loops with the old
            # incarnation (or never had one): restart them.
            for request in list(self.state.pending):
                if request.jobid == jobid:
                    self._maybe_borrow(job, request)
        yield from self._session_loop(job, conn)

    def _app_message(self, job, msg):
        kind = msg.get("type")
        if kind == "machine_request":
            yield self.proc.sleep(self.cal.broker_decision)
            request = PendingRequest(
                reqid=msg["reqid"],
                jobid=job.jobid,
                symbolic=msg["symbolic"],
                firm=bool(msg["firm"]),
                arrived_at=self.proc.env.now,
            )
            self.state.pending.append(request)
            self._reqids[(job.jobid, request.reqid)] = request
            self._request_spans[(job.jobid, request.reqid)] = self.tracer.start(
                "broker.request",
                parent=protocol.trace_of(msg) or self._job_spans.get(job.jobid),
                actor="rbroker",
                jobid=job.jobid,
                reqid=request.reqid,
                symbolic=request.symbolic,
                firm=request.firm,
            )
            self.metrics.gauge("broker.pending_requests").inc()
            self.service.log(
                event="machine_request",
                jobid=job.jobid,
                reqid=request.reqid,
                symbolic=request.symbolic,
                firm=request.firm,
            )
            yield from self._schedule()
            if not self._fed_enabled:
                self._deny_if_unsatisfiable(job, request)
            else:
                # Federated deny semantics: before giving up, ask the
                # sibling shards (the borrow loop issues the denial itself
                # once unsatisfiability is conclusive federation-wide).
                self._maybe_borrow(job, request, hint=msg.get("hint"))
        elif kind == "released":
            yield from self._on_released(job, msg["host"])
        elif kind == "job_done":
            yield from self._finish_job(job, code=msg.get("code"))

    def _deny_if_unsatisfiable(self, job, request) -> None:
        """Reject a request no machine on the network could *ever* satisfy.

        A request is queued while machines are merely busy; but if every
        managed machine has reported and none matches the symbolic name and
        RSL constraints even in the best case, waiting is futile and the
        job deserves an immediate error (its rsh' then fails like a plain
        rsh to an unknown host would).
        """
        if request not in self.state.pending:
            return  # already granted or being reclaimed for
        if not self.state.all_reported(self.service.managed_hosts):
            return  # incomplete knowledge: keep waiting
        if self._satisfiable(job, request.symbolic):
            return  # satisfiable in principle; stay queued
        self._deny_request(job, request)

    def _deny_request(self, job, request) -> None:
        """Issue the denial for a conclusively unsatisfiable request."""
        self.state.pending.remove(request)
        self._reqids.pop((job.jobid, request.reqid), None)
        span = self._request_spans.pop((job.jobid, request.reqid), None)
        if span is not None:
            span.end(outcome="denied")
        self.metrics.counter("broker.denials").inc()
        self.metrics.gauge("broker.pending_requests").dec()
        self.service.log(
            event="denied",
            jobid=job.jobid,
            reqid=request.reqid,
            symbolic=request.symbolic,
        )
        if job.conn is not None:
            _safe_send(
                job.conn,
                protocol.machine_denied(request.reqid, "no machine can match"),
            )

    def _satisfiable(self, job, symbolic) -> bool:
        """Whether any reported machine could ever satisfy (symbolic, RSL).

        Memoized per request shape against the state's capability version:
        the verdict can only change when the reported set or a reported
        machine's matching view changes, and every such change bumps the
        version."""
        if not self.state.use_indexes:
            return self.state.satisfiable_somewhere(symbolic, job)
        key = (symbolic, job.rsl.source, job.home_host)
        version = self.state.capability_version
        hit = self._deny_memo.get(key)
        if hit is not None and hit[1] == version:
            return hit[0]
        verdict = self.state.satisfiable_somewhere(symbolic, job)
        self._deny_memo[key] = (verdict, version)
        return verdict

    # -- allocation engine -----------------------------------------------------

    def _schedule(self):
        """Run the policy over the pending queue until no progress.

        Indexed mode evaluates only the dirty requests — those whose
        candidate set may have changed since they last waited (the state's
        invariant: a clean request's decision is always "wait").  Each
        batch is a frozen service-order snapshot, evaluated against the
        evolving state exactly like one of the reference scheduler's
        passes; any grant or preemption re-dirties the whole queue, which
        reproduces the reference loop's evaluate-until-no-progress fixed
        point decision for decision."""
        decisions = self.metrics.counter("broker.policy_decisions")
        if not self.state.use_indexes:
            # Reference scheduler: evaluate every pending request, repeat
            # until a full pass makes no progress.
            progress = True
            while progress:
                progress = False
                self.metrics.counter("broker.sched_passes").inc()
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
                        # Orphaned session: hold its requests (it may resume
                        # and want them) but never grant into the void.
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
        while True:
            batch = self.state.take_dirty_pending()
            if not batch:
                break
            self.metrics.counter("broker.sched_passes").inc()
            for request in batch:
                if request not in self.state.pending:
                    continue  # satisfied earlier in this very pass
                if request.reserved_host is not None:
                    continue  # a machine is being reclaimed for this request
                job = self.state.jobs.get(request.jobid)
                if job is None or job.done:
                    self.state.pending.remove(request)
                    continue
                if job.conn is None:
                    continue  # orphaned session: hold, never grant
                decision = self.policy.decide(self.state, request)
                decisions.inc()
                if decision.kind.value == "grant":
                    # The allocation change marks everything dirty, so the
                    # next batch replays the queue like a reference re-pass.
                    self._grant(request, decision.host)
                elif decision.kind.value == "preempt":
                    self._start_reclaim(decision.host, claimed_by=request)
                    # No allocation flipped (the victim still holds until it
                    # releases); re-dirty explicitly to mirror the reference
                    # scheduler's progress-driven re-pass.
                    self.state.mark_all_pending_dirty()
        return
        yield  # pragma: no cover - generator form for uniform call sites

    def _grant(self, request: PendingRequest, host: str) -> None:
        job = self.state.job(request.jobid)
        self.state.pending.remove(request)
        self._reqids.pop((request.jobid, request.reqid), None)
        self.state.allocate(
            host,
            request.jobid,
            firm=request.firm,
            now=self.proc.env.now,
            lease_expires_at=self.proc.env.now + self.cal.lease_ttl,
        )
        waited = self.proc.env.now - request.arrived_at
        span = self._request_spans.pop((request.jobid, request.reqid), None)
        if span is not None:
            span.end(outcome="granted", host=host, waited=waited)
        self.metrics.counter("broker.grants").inc()
        self.metrics.histogram("broker.grant_wait").observe(waited)
        self.metrics.gauge("broker.pending_requests").dec()
        self.service.log(
            event="grant",
            jobid=request.jobid,
            reqid=request.reqid,
            host=host,
            waited=waited,
        )
        if self._fencing:
            # Install the grant on the hosting daemon, epoch-stamped, before
            # the app hears about it: a fenced (stale-epoch) incarnation is
            # rejected here and demotes before its grant can double-allocate,
            # and the daemon audits the machine for a second job's subapp
            # (the double-grant counter the chaos harness pins at zero).
            daemon = self._daemon_conns.get(host)
            if daemon is not None:
                _safe_send(
                    daemon,
                    protocol.grant_install(
                        request.jobid, request.reqid, self.epoch
                    ),
                )
        if job.conn is not None:
            # The grant carries the request span's context so the app can
            # parent asynchronous module grows under the broker's decision.
            _safe_send(
                job.conn,
                protocol.attach_trace(
                    protocol.machine_grant(request.reqid, host),
                    span.context if span is not None else None,
                ),
            )

    def _start_reclaim(self, host: str, claimed_by) -> None:
        record = self.state.machine(host)
        allocation = record.allocation
        assert allocation is not None and allocation.state is AllocationState.ACTIVE
        allocation.state = AllocationState.RECLAIMING
        allocation.reclaiming_since = self.proc.env.now
        allocation.claimed_by = claimed_by
        if claimed_by is not None:
            claimed_by.reserved_host = host
        journal = self.state.journal
        if journal is not None:
            journal.record(
                {
                    "op": "reclaim",
                    "host": host,
                    "since": allocation.reclaiming_since,
                    "claim": (
                        [claimed_by.jobid, claimed_by.reqid]
                        if claimed_by is not None
                        else None
                    ),
                }
            )
        victim = self.state.job(allocation.jobid)
        # Parent the reclaim under whatever demanded it: the claiming
        # request's span, or the victim's own job span on owner reclaims.
        if claimed_by is not None:
            parent = self._request_spans.get((claimed_by.jobid, claimed_by.reqid))
        else:
            parent = self._job_spans.get(allocation.jobid)
        reclaim = self.tracer.start(
            "broker.reclaim",
            parent=parent,
            actor="rbroker",
            host=host,
            victim=allocation.jobid,
            for_jobid=claimed_by.jobid if claimed_by else None,
        )
        self._reclaim_spans[host] = reclaim
        self.metrics.counter("broker.revokes").inc()
        self.service.log(
            event="revoke",
            host=host,
            victim=allocation.jobid,
            for_jobid=claimed_by.jobid if claimed_by else None,
        )
        if victim.conn is not None:
            _safe_send(
                victim.conn,
                protocol.attach_trace(protocol.revoke(host), reclaim.context),
            )

    def _on_released(self, job, host: str):
        record = self.state.machines.get(host)
        if record is None or record.allocation is None:
            return
        if record.allocation.jobid != job.jobid:
            return  # stale release from a previous holder
        if record.borrowed_from is not None:
            # Returning a loan: the record leaves this shard's table
            # entirely (the donor resumes scheduling over the machine).
            donor = record.borrowed_from
            self.state.release(host)
            self._forget_loan(host, job.jobid, donor)
            yield from self._schedule()
            return
        allocation = self.state.release(host)
        reclaim = self._reclaim_spans.pop(host, None)
        if reclaim is not None:
            reclaim.end()
            self.metrics.histogram("broker.reclaim_seconds").observe(
                reclaim.duration
            )
        self.service.log(event="released", host=host, jobid=job.jobid)
        claim = allocation.claimed_by
        if claim is not None:
            claim.reserved_host = None
            if claim in self.state.pending:
                claimer = self.state.jobs.get(claim.jobid)
                if (
                    claimer is not None
                    and not claimer.done
                    and claimer.conn is not None
                    # The machine may have died between the revoke and the
                    # release (its daemon connection dropped): only hand it
                    # over if it is still known-good, otherwise leave the
                    # request queued for the scheduler pass below.
                    and record.reported
                    and not record.console_active
                ):
                    self._grant(claim, host)
        yield from self._schedule()

    def _finish_job(self, job, code):
        job.done = True
        self.state.drop_job_requests(job.jobid)
        for key in [k for k in self._request_spans if k[0] == job.jobid]:
            self._request_spans.pop(key).end(outcome="dropped")
            self.metrics.gauge("broker.pending_requests").dec()
        for key in [k for k in self._reqids if k[0] == job.jobid]:
            self._reqids.pop(key, None)
        for allocation in self.state.allocations_of(job.jobid):
            record = self.state.machines.get(allocation.host)
            released = self.state.release(allocation.host)
            reclaim = self._reclaim_spans.pop(allocation.host, None)
            if reclaim is not None:
                reclaim.end(outcome="job_done")
            claim = released.claimed_by if released else None
            if claim is not None:
                claim.reserved_host = None
            if record is not None and record.borrowed_from is not None:
                self._forget_loan(
                    allocation.host, job.jobid, record.borrowed_from
                )
        span = self._job_spans.pop(job.jobid, None)
        if span is not None:
            span.end(code=code)
        retain = self.service.retain_done_jobs
        journal = self.state.journal
        if journal is not None:
            journal.record(
                {"op": "job_done", "jobid": job.jobid, "prune": not retain}
            )
        if not retain:
            # Service mode: the job table must not grow without bound.  A
            # resume for a pruned job cannot arrive (its app exited before
            # job_done), and a stray one would self-heal through the
            # orphan-session grace anyway.
            self.state.jobs.pop(job.jobid, None)
        self.service.log(event="job_done", jobid=job.jobid, code=code)
        yield from self._schedule()
