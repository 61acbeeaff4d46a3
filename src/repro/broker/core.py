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

Components (DESIGN.md §11): :class:`_BrokerControl` is one incarnation's
scheduler and composition root; every other concern is a component that
owns its fields and talks to the rest through a few named methods over the
shared state:

* :class:`~.leases.Leases` — daemons, liveness and lease sweeps, lease
  ingest and the reconciliation of recovered leases;
* :class:`~.sessions.Sessions` — app submit, requests, orphaning, resume;
* :class:`~.leases.Fence` — the epoch stamp and the demotion it can force;
* ``peers`` — the seam: one :class:`~.leases.Peer` part per subsystem that
  talks to other broker processes, called at fixed points and never asked
  which subsystem it is.

A standalone broker's peers are no-ops and its fence never stamps, and
every incarnation after the first boots through :func:`~.recovery.recover`.
The scheduler is dirty-driven over the state's incremental indexes
(DESIGN.md §12); the original evaluate-everything loop survives only as the
test oracle ``tests/broker/reference.py``.
"""

from __future__ import annotations

from functools import cached_property

from repro.broker import protocol
from repro.broker.leases import Fence, Leases, serve_sessions
from repro.broker.sessions import Sessions
from repro.broker.records import CORE_STATES, AllocationState, PendingRequest
from repro.cluster import ports
from repro.obs.timeseries import windowed_rate
from repro.os.errors import ConnectionClosed


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
        for peer in ctl.peers:
            peer.start()
        for host in service.managed_hosts:
            proc.thread(ctl.leases.daemon_keeper(host), name=f"daemon-keeper-{host}")
        proc.thread(ctl.leases.liveness_sweeper(), name="liveness-sweeper")
        proc.thread(ctl.leases.lease_sweeper(), name="lease-sweeper")
        if ctl.journal is not None:
            proc.thread(ctl.leases.journal_flusher(), name="journal-flusher")
        try:
            yield from serve_sessions(proc, listener, ctl.serve, "broker-session")
            return 0
        finally:
            # The incarnation ends with its process (killed, or the run
            # closed): unlink it, so reference counting frees it.
            ctl.close()

    return rbroker_main


class _BrokerControl:
    """One broker incarnation: its scheduler and its components."""

    def __init__(self, proc, service) -> None:
        self.proc = proc
        self.service = service
        self.state = service.state
        self.policy = service.policy
        self.cal = proc.machine.network.calibration
        self.tracer = service.tracer
        self.metrics = service.metrics
        # Captured per-incarnation, NOT read through the service: once a
        # peer subsystem boots another incarnation the service points at
        # the *new* one's state/journal/epoch/events, and an old one that
        # kept running must keep serving its own — that split is exactly
        # what fencing exists to resolve (DESIGN.md §16).  Components
        # capture theirs (ready, daemon-down events) the same way.
        self.epoch = service.epoch
        self.journal = service.journal
        #: (symbolic, rsl source, home host) -> (satisfiable?, capability
        #: version).  A verdict is valid while the capability universe it
        #: was computed against is unchanged; a stale entry is recomputed in
        #: place, so the memo never grows past the distinct request shapes.
        self._deny_memo = {}
        # Span bookkeeping lives here, NOT on the state dataclasses: putting
        # spans on PendingRequest would change its equality semantics, which
        # the pending-queue membership tests rely on.
        self.job_spans = {}  # jobid -> broker.job span
        self.request_spans = {}  # (jobid, reqid) -> broker.request span
        self.reclaim_spans = {}  # host -> broker.reclaim span
        # -- the components -------------------------------------------------
        self.fence = Fence(self, stamped=any(p.fences for p in service.peers))
        #: This incarnation's part of each peer subsystem, in boot order.
        self.peers = tuple(peer.attach(self) for peer in service.peers)
        self.leases = Leases(self)
        self.sessions = Sessions(self)

    def close(self) -> None:
        """Cut the components' back-pointers to this ended incarnation."""
        for part in (self.leases, self.sessions, *self.peers):
            part.core = None

    # -- instruments of the per-request and per-pass paths -------------------
    # Bound on first use rather than resolved by name at every write; first
    # use is still what creates each one, so the registry holds exactly what
    # by-name lookups would have made.

    @cached_property
    def _grants(self):
        return self.metrics.counter("broker.grants")

    @cached_property
    def _grant_wait(self):
        return self.metrics.histogram("broker.grant_wait")

    @cached_property
    def _sched_passes(self):
        return self.metrics.counter("broker.sched_passes")

    @cached_property
    def _policy_decisions(self):
        return self.metrics.counter("broker.policy_decisions")

    # -- connection dispatch -------------------------------------------------

    def serve(self, conn):
        try:
            first = yield conn.recv()
        except ConnectionClosed:
            conn.close()
            return
        kind = first.get("type")
        if kind == "daemon_hello":
            yield from self.leases.serve_daemon(conn, first)
        elif kind == "submit":
            yield from self.sessions.serve_app(conn, first)
        elif kind == "resume":
            yield from self.sessions.serve_resume(conn, first)
        elif kind == "status":
            protocol.try_send(conn, protocol.status_reply(self.state.summary()))
            conn.close()
        elif kind == "stats":
            protocol.try_send(conn, protocol.stats_reply(self.stats()))
            conn.close()
        elif kind == "halt_job":
            jobid = int(first.get("jobid", -1))
            job = self.state.jobs.get(jobid)
            ok = job is not None and not job.done and job.conn is not None
            if ok:
                protocol.try_send(job.conn, protocol.halt())
                self.service.log(event="halt_job", jobid=jobid)
            protocol.try_send(conn, protocol.halt_ack(jobid, ok))
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
        peers = {peer.key: peer.stats(leased, metric_value) for peer in self.peers}
        heap = self.proc.env.heap_stats()
        kernel = {
            "events_processed": heap["processed"],
            "heap_high_water": heap["heap_high_water"],
        }
        return {
            "time": now,
            "kernel": kernel,
            "journal": journal.stats() if journal is not None else {"enabled": False},
            **peers,
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

    # -- denial ----------------------------------------------------------------

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
        span = self.request_spans.pop((job.jobid, request.reqid), None)
        if span is not None:
            span.end(outcome="denied")
        self.metrics.counter("broker.denials").inc()
        self.service.count_pending()
        self.service.log(
            event="denied",
            jobid=job.jobid,
            reqid=request.reqid,
            symbolic=request.symbolic,
        )
        if job.conn is not None:
            protocol.try_send(
                job.conn,
                protocol.machine_denied(request.reqid, "no machine can match"),
            )

    def _satisfiable(self, job, symbolic) -> bool:
        """Whether any reported machine could ever satisfy (symbolic, RSL).

        Memoized per request shape against the state's capability version:
        the verdict can only change when the reported set or a reported
        machine's matching view changes, and every such change bumps the
        version."""
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

        Evaluates only the dirty requests — those whose candidate set may
        have changed since they last waited (the state's invariant: a clean
        request's decision is always "wait").  Each batch is a frozen
        service-order snapshot, evaluated against the evolving state exactly
        like one pass of the evaluate-everything reference loop; any grant
        or preemption re-dirties the whole queue, which reproduces that
        loop's evaluate-until-no-progress fixed point decision for
        decision."""
        decisions = self._policy_decisions
        while True:
            batch = self.state.take_dirty_pending()
            if not batch:
                break
            self._sched_passes.inc()
            for request in batch:
                if request not in self.state.pending:
                    continue  # satisfied earlier in this very pass
                if request.reserved_host is not None:
                    continue  # a machine is being reclaimed for this request
                if self.state.jobs[request.jobid].conn is None:
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

    def _grant(self, request: PendingRequest, host: str):
        """Bind ``host`` to the request's job and tell the app."""
        now = self.proc.env.now
        # Each kind of grant keeps its order of journal ops (a torn WAL tail
        # is cut by bytes, so the order decides what a crash leaves).
        self.state.pending.remove(request)
        self.state.allocate(
            host,
            request.jobid,
            firm=request.firm,
            now=now,
            lease_expires_at=now + self.cal.lease_ttl,
        )
        self.announce_grant(request, host, now, install=self.fence.stamped)

    def announce_grant(self, request, host, now, install=False, count=None,
                       **fields):
        """The step every grant ends with, the core's and a peer's alike:
        end the request span, count, log and tell the app.  ``count``
        counts a peer's kind of grant, right after ``broker.grants``;
        ``fields`` join the span end and the log entry."""
        job = self.state.job(request.jobid)
        waited = now - request.arrived_at
        span = self.request_spans.pop((request.jobid, request.reqid), None)
        if span is not None:
            span.end(outcome="granted", host=host, waited=waited, **fields)
        self._grants.inc()
        if count is not None:
            count()
        self._grant_wait.observe(waited)
        self.service.count_pending()
        self.service.log(
            event="grant",
            jobid=request.jobid,
            reqid=request.reqid,
            host=host,
            waited=waited,
            **fields,
        )
        if install:
            # Install the grant on the hosting daemon, epoch-stamped, before
            # the app hears about it: a fenced (stale-epoch) incarnation is
            # rejected here and demotes before its grant can double-allocate,
            # and the daemon audits the machine for a second job's subapp
            # (the double-grant counter the chaos harness pins at zero).
            self.leases.install(host, request.jobid, request.reqid)
        if job.conn is not None:
            # The grant carries the request span's context so the app can
            # parent asynchronous module grows under the broker's decision.
            protocol.try_send(
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
        allocation.reclaim(self.proc.env.now, claimed_by, self.state.journal)
        victim = self.state.job(allocation.jobid)
        # Parent the reclaim under whatever demanded it: the claiming
        # request's span, or the victim's own job span on owner reclaims.
        if claimed_by is not None:
            parent = self.request_spans.get((claimed_by.jobid, claimed_by.reqid))
        else:
            parent = self.job_spans.get(allocation.jobid)
        reclaim = self.tracer.start(
            "broker.reclaim",
            parent=parent,
            actor="rbroker",
            host=host,
            victim=allocation.jobid,
            for_jobid=claimed_by.jobid if claimed_by else None,
        )
        self.reclaim_spans[host] = reclaim
        self.metrics.counter("broker.revokes").inc()
        self.service.log(
            event="revoke",
            host=host,
            victim=allocation.jobid,
            for_jobid=claimed_by.jobid if claimed_by else None,
        )
        if victim.conn is not None:
            protocol.try_send(
                victim.conn,
                protocol.attach_trace(protocol.revoke(host), reclaim.context),
            )

    def _owner_priority(self, record) -> None:
        """Revoke an allocation when the machine's owner is at the console;
        one in a peer's state is the peers' to recall."""
        allocation = record.allocation
        if not record.console_active or allocation is None:
            return
        if allocation.state is AllocationState.ACTIVE:
            if self.policy.reclaim_on_owner_return(self.state, record):
                self.service.log(
                    event="owner_reclaim", host=record.host, jobid=allocation.jobid
                )
                self._start_reclaim(record.host, claimed_by=None)
        elif allocation.state not in CORE_STATES:
            for peer in self.peers:
                peer.owner_returned(record)

    def free(self, host: str, outcome=None):
        """Return ``host``, which must hold an allocation, to the pool: the
        one caller of the release transition (DESIGN.md §11, "Allocation
        lifecycle").  Releases the allocation (which un-reserves its
        claim), ends the host's reclaim span (bare and timed when
        ``outcome`` is None, the victim's graceful release) and tells the
        peers.  Returns the released allocation."""
        allocation = self.state.release(host)
        reclaim = self.reclaim_spans.pop(host, None)
        if reclaim is not None:
            if outcome is None:
                reclaim.end()
                self.metrics.histogram("broker.reclaim_seconds").observe(
                    reclaim.duration
                )
            else:
                reclaim.end(outcome=outcome)
        for peer in self.peers:
            peer.freed(host, allocation)
        return allocation

    def _on_released(self, job, host: str):
        record = self.state.machines.get(host)
        if record is None or record.allocation is None:
            return
        if record.allocation.jobid != job.jobid:
            return  # stale release from a previous holder
        claim = self.free(host).claimed_by
        if self.state.machines.get(host) is not record:
            # A peer took the record out of the table with its allocation
            # (DESIGN.md §17): nothing is handed over, and the release is
            # the peer's to log.
            yield from self._schedule()
            return
        self.service.log(event="released", host=host, jobid=job.jobid)
        if (
            claim is not None
            and claim in self.state.pending
            and self.state.jobs[claim.jobid].conn is not None
            # The machine may have died between the revoke and the release
            # (its daemon connection dropped): only hand it over if it is
            # still known-good, otherwise leave the request queued for the
            # scheduler pass below.
            and record.reported
            and not record.console_active
        ):
            self._grant(claim, host)
        yield from self._schedule()

    def _finish_job(self, job, code):
        job.done = True
        self.state.drop_job_requests(job.jobid)
        self.service.count_pending()
        for key in [k for k in self.request_spans if k[0] == job.jobid]:
            self.request_spans.pop(key).end(outcome="dropped")
        for allocation in self.state.allocations_of(job.jobid):
            self.free(allocation.host, outcome="job_done")
        span = self.job_spans.pop(job.jobid, None)
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
