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
owns its fields, exists only when the configuration uses it, and talks to
the rest through a few named methods over the shared state:

* :class:`~.leases.Leases` — daemons, liveness and lease sweeps, lease
  ingest and the reconciliation of recovered leases;
* :class:`~.sessions.Sessions` — app submit, requests, orphaning, resume;
* :class:`~.replica.Fence` — epoch fencing (standby or shards only);
* :class:`~.replica.Shipper` — WAL shipping to a warm standby;
* :class:`~.federation.Borrowing` — cross-shard borrowing (shards only),
  the core's one ``federation`` hook.

So a standalone broker is the unsharded, no-standby composition, and every
restart and promotion boots through :func:`~.recovery.recover`.  The
scheduler is dirty-driven over the state's incremental indexes (DESIGN.md
§12); the original evaluate-everything loop survives only as the test
oracle ``tests/broker/reference.py``.
"""

from __future__ import annotations

from functools import cached_property

from repro.broker import protocol
from repro.broker.federation import Borrowing
from repro.broker.leases import Leases
from repro.broker.replica import Fence, Shipper
from repro.broker.sessions import Sessions
from repro.broker.records import AllocationState, PendingRequest
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
        if ctl.shipper is not None:
            # Warm-standby replication (DESIGN.md §16): serve the WAL ship
            # stream, heartbeat it, keep the standby process alive, and —
            # on a promoted incarnation — fence the ex-primary.
            ship_listener = proc.listen(ports.SHIP)
            proc.thread(ctl.shipper.acceptor(ship_listener), name="ship-acceptor")
            proc.thread(ctl.shipper.heartbeater(), name="ship-heartbeater")
            if service.standby_host != proc.machine.name:
                proc.thread(
                    ctl.shipper.standby_keeper(service.standby_host),
                    name="standby-keeper",
                )
            if (
                service.fence_target
                and service.fence_target != proc.machine.name
            ):
                proc.thread(ctl.fence.fencer(service.fence_target), name="fencer")
        if ctl.federation is not None:
            # Federation (DESIGN.md §17): serve sibling shards' borrow
            # requests on the federation port.
            fed_listener = proc.listen(ports.FEDERATION)
            proc.thread(
                ctl.federation.acceptor(fed_listener),
                name="federation-acceptor",
            )
        for host in service.managed_hosts:
            proc.thread(ctl.leases.daemon_keeper(host), name=f"daemon-keeper-{host}")
        proc.thread(ctl.leases.liveness_sweeper(), name="liveness-sweeper")
        proc.thread(ctl.leases.lease_sweeper(), name="lease-sweeper")
        if ctl.journal is not None:
            proc.thread(ctl.leases.journal_flusher(), name="journal-flusher")
        try:
            while True:
                try:
                    conn = yield listener.accept()
                except ConnectionClosed:
                    return 0
                proc.thread(ctl.serve(conn), name="broker-session")
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
        # Captured per-incarnation, NOT read through the service: after a
        # standby promotion the service points at the *new* incarnation's
        # state/journal/epoch/events, and a partitioned ex-primary that kept
        # running must keep serving its own — that split is exactly what the
        # fencing protocol exists to resolve (DESIGN.md §16).  Components
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
        # -- the components this configuration uses --------------------------
        #: Epoch fencing: grants and renewals toward daemons carry epoch
        #: stamps (warm standby or shards).  None leaves the wire protocol
        #: byte-identical to the pre-standby broker.
        self.fence = Fence(self) if service.fencing else None
        self.leases = Leases(self)
        self.sessions = Sessions(self)
        self.shipper = Shipper(self) if service.replicated else None
        #: The federation hook: the borrow protocol on a shard; None on a
        #: standalone broker.
        self.federation = Borrowing(self) if service.shard is not None else None

    def close(self) -> None:
        """Cut the components' back-pointers to this ended incarnation."""
        for part in (self.leases, self.sessions, self.federation):
            if part is not None:
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
        if self.service.replicated:
            # A promoted incarnation has no standby of its own (shipping
            # off), but its fencing/promotion counters still belong here.
            ship = journal.ship_stats() if journal.ship_enabled else {"enabled": False}
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
            "federation": (
                {"enabled": False}
                if self.federation is None
                else self.federation.stats(leased, metric_value)
            ),
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

    def _grant(self, request: PendingRequest, host: str, borrowed_from=None):
        """Bind ``host`` to the request's job and tell the app.  A machine
        ``borrowed_from`` a sibling shard is leased by its donor, who also
        installed the grant on its daemon (DESIGN.md §17)."""
        job = self.state.job(request.jobid)
        now = self.proc.env.now
        loan = {} if borrowed_from is None else {"borrowed_from": borrowed_from}
        # Each kind of grant keeps its order of journal ops (a torn WAL tail
        # is cut by bytes, so the order decides what a crash leaves).
        if not loan:
            self.state.pending.remove(request)
        self.state.allocate(
            host,
            request.jobid,
            firm=request.firm,
            now=now,
            lease_expires_at=float("inf") if loan else now + self.cal.lease_ttl,
        )
        if loan:
            # Its daemon reports to the donor: the grant is all it says here.
            self.state.machines[host].touch(now)
            self.state.pending.remove(request)
        waited = now - request.arrived_at
        span = self.request_spans.pop((request.jobid, request.reqid), None)
        if span is not None:
            span.end(outcome="granted", host=host, waited=waited, **loan)
        self._grants.inc()
        if loan:
            self.metrics.counter("federation.cross_shard_grants").inc()
            self.service.federation_counters["cross_shard_grants"] += 1
        self._grant_wait.observe(waited)
        self.service.count_pending()
        self.service.log(
            event="grant",
            jobid=request.jobid,
            reqid=request.reqid,
            host=host,
            waited=waited,
            **loan,
        )
        if self.fence is not None and not loan:
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
        ):
            # Owner back on a loaned machine (donor side).
            self.federation.recall(record)

    def free(self, host: str, outcome=None):
        """Return ``host``, which must hold an allocation, to the pool: the
        one caller of the release transition (DESIGN.md §11, "Allocation
        lifecycle").  Releases the allocation (which un-reserves its
        claim), ends the host's reclaim span (bare and timed when
        ``outcome`` is None, the victim's graceful release) and finishes
        the federation half.  Returns the released allocation."""
        donor = self.state.machines[host].borrowed_from
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
        if donor is not None:
            self.federation.forget_loan(host, allocation.jobid, donor)
        elif allocation.state is AllocationState.MIGRATING:
            self.federation._recalled.discard(host)
        return allocation

    def _on_released(self, job, host: str):
        record = self.state.machines.get(host)
        if record is None or record.allocation is None:
            return
        if record.allocation.jobid != job.jobid:
            return  # stale release from a previous holder
        if record.borrowed_from is not None:
            # Returning a loan: the record leaves this shard's table
            # entirely (the donor resumes scheduling over the machine).
            self.free(host)
            yield from self._schedule()
            return
        claim = self.free(host).claimed_by
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
