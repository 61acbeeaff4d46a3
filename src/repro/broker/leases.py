"""Liveness and leases: the broker's side of the daemon layer (DESIGN.md §11).

One :class:`Leases` component per broker incarnation keeps the daemons
running (spawned via plain rsh, respawned when their connection drops),
ingests their reports into :class:`~repro.broker.state.BrokerState`, and
holds the two failure detectors the reports feed:

* the **liveness sweeper** declares a machine dead after a deadline of
  silence and reclaims what it held through the ordinary revocation path;
* the **lease sweeper** expires grants whose leases stopped being renewed —
  the machine is fine but the holder is gone.

Daemon inventories are also what a recovered broker reconciles against:
they confirm or drop each journal-recovered lease, and inside a restarted
incarnation's recovery window they seed adoptions.
"""

from __future__ import annotations

from repro.broker import protocol
from repro.broker.records import AllocationState
from repro.os.errors import ConnectionClosed


class Leases:
    """Daemon sessions, machine liveness and grant leases."""

    def __init__(self, core) -> None:
        service = core.service
        self.core = core
        self.proc = core.proc
        self.state = core.state
        self.cal = core.cal
        self.tracer = core.tracer
        self.metrics = core.metrics
        self.service = service
        self.epoch = core.epoch
        # Per-incarnation, captured at boot like the core's handles.
        self._ready = service.ready
        self._daemon_down = service._daemon_down
        self._addresses = list(service.broker_addresses)
        #: host -> live daemon connection (for epoch-stamped sends).
        self._daemon_conns = {}
        self._reports_seen = set()
        self._managed_set = frozenset(service.managed_hosts)
        #: The armed liveness sweep timer (cancelled on re-arm, see
        #: :meth:`liveness_sweeper`).
        self._sweep_timer = None
        #: The armed lease sweep timer (same coalescing discipline).
        self._lease_timer = None
        #: Until this instant a restarted incarnation trusts daemon lease
        #: inventories enough to *adopt* allocations from them; -1.0 on a
        #: first-epoch broker (nothing to recover, adoption disabled).
        self._recovery_until = (
            self.proc.env.now + self.cal.broker_recovery_window
            if self.epoch > 1
            else -1.0
        )

    # -- daemons -------------------------------------------------------------

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
            # The finished rsh would otherwise stay referenced from this
            # frame for the daemon's whole life.
            del rsh
            if code != 0:
                # Machine unreachable; back off and retry.
                yield self.proc.sleep(self.cal.daemon_report_interval)
                continue
            yield down  # triggered when the daemon's connection drops
            self.metrics.counter("broker.daemon_restarts").inc()
            self.service.log(event="daemon_restart", host=host)

    def install(self, host, jobid, reqid) -> None:
        """Install a grant on the hosting daemon, stamped with this
        incarnation's epoch (fencing, DESIGN.md §16): a daemon that has
        witnessed a higher epoch rejects it, which demotes us."""
        daemon = self._daemon_conns.get(host)
        if daemon is not None:
            protocol.try_send(daemon, protocol.grant_install(jobid, reqid, self.epoch))

    def serve_daemon(self, conn, hello):
        """Serve one daemon session: reconcile the hello's inventory, then
        fold every report into the machine's record until the link drops."""
        host = hello["host"]
        core = self.core
        fence = core.fence
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
        if fence is not None:
            # Stamp the session with this incarnation's epoch; a daemon that
            # has witnessed a higher one answers with fence_reject, which
            # demotes us (DESIGN.md §16).
            protocol.try_send(conn, protocol.daemon_welcome(self.epoch))
        ready = self._ready
        try:
            while True:
                msg = yield conn.recv()
                kind = msg["type"]
                if kind != "daemon_report":
                    if kind == "fence_reject":
                        fence.demote(
                            witnessed=int(msg.get("witnessed", 0)),
                            source="fence_reject",
                            host=msg.get("host"),
                        )
                        return
                    continue
                delta = msg.get("delta")
                if delta and record.last_report >= 0.0 and not record.dead:
                    # The steady-state beacon: the record has reported and
                    # is alive, so moving its clocks touches no index, no
                    # console state and no scheduling trigger — only the
                    # lease bookkeeping below can act.  Equivalent to the
                    # general path under the same conditions.
                    record.touch(msg["time"])
                    allocation = record.allocation
                    if allocation is None:
                        if record.leases:
                            self._adopt_from_inventory(record, record.leases)
                    elif allocation.jobid in record.leases:
                        self._renew_lease(record, allocation)
                    if not ready.triggered:
                        self._note_ready(host)
                    if record.console_active:
                        core._owner_priority(record)
                    continue
                was_reported = record.reported
                was_active = record.console_active
                was_dead = record.dead
                if delta:
                    # Delta beacon for a dead or unreported record (the fast
                    # path above takes the rest): nothing monitorable
                    # changed since the machine's last full report, so the
                    # retained record fields are exact — only the liveness
                    # clocks move and the stored lease inventory renews.  A
                    # record with no retained snapshot at all (its full
                    # report was lost in transit) cannot be reconstructed
                    # from a beacon; it waits for the next full report,
                    # which the daemon's full-every-N cadence bounds.
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
                if not ready.triggered:
                    self._note_ready(host)
                core._owner_priority(record)
                # Scheduling is event-driven: most reports change nothing a
                # policy can act on, so only a machine appearing for the
                # first time or a console-activity flip triggers a pass.
                if not was_reported or record.console_active != was_active:
                    yield from core._schedule()
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
            self._renew_lease(record, allocation)
        elif allocation is None:
            self._adopt_from_inventory(record, leases)

    def _renew_lease(self, record, allocation) -> None:
        """Push the allocation's lease one TTL out: the machine's inventory
        lists its job."""
        allocation.lease_expires_at = self.proc.env.now + self.cal.lease_ttl
        allocation.recovered = False  # a live inventory confirms it
        journal = self.state.journal
        if journal is not None:
            journal.note_lease(record.host, allocation.lease_expires_at)
        if self.core.fence is not None:
            # Echo the renewal with our epoch stamp: a daemon holding a
            # higher witness fences us before the stale lease can matter.
            daemon = self._daemon_conns.get(record.host)
            if daemon is not None:
                protocol.try_send(
                    daemon,
                    protocol.lease_renew(self.epoch, [allocation.jobid]),
                )

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
        self.drop_recovered(record, trusted=sorted(int(j) for j in leases))

    def drop_recovered(self, record, trusted) -> None:
        """Release a recovered allocation the live side disagrees with."""
        self.metrics.counter("recovery.conflicts").inc()
        self.service.log(
            event="recovery_conflict",
            host=record.host,
            jobid=record.allocation.jobid,
            trusted=trusted,
        )
        self.core.free(record.host, outcome="recovery_conflict")

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
        """Count ``host`` as reported; called only until ``ready`` has
        triggered."""
        self._reports_seen.add(host)
        if self._reports_seen >= self._managed_set:
            self._ready.succeed()

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

    def journal_flusher(self):
        """Drain the journal's coalesced notes (machine views, lease
        renewals) to disk every ``journal_flush_interval``.

        Structural ops are flushed write-through at record time, so this
        thread bounds only the staleness of the high-rate noise; it dies
        with the broker process, which is exactly the page-cache-loss
        semantics :meth:`BrokerJournal.discard_unflushed` models."""
        journal = self.core.journal
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
            self.core.federation.end_loan(
                record.host, allocation, outcome="machine_dead"
            )
        elif allocation is not None and allocation.state is AllocationState.ACTIVE:
            victim = self.state.jobs.get(allocation.jobid)
            if victim is not None and not victim.done and victim.conn is not None:
                # Reclaim via the normal revocation path: the victim's subapp
                # connection was severed by the failure, so the app releases
                # as soon as it processes the revoke.
                self.core._start_reclaim(record.host, claimed_by=None)
            else:
                self.core.free(record.host, outcome="machine_dead")
        # RECLAIMING allocations need nothing extra: a revoke is already in
        # flight and the release arrives once the victim notices the severed
        # subapp connection.
        span.end()
        yield from self.core._schedule()

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
        core = self.core
        allocation = record.allocation
        span = self.tracer.start(
            "lease.expire",
            parent=core.job_spans.get(allocation.jobid),
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
            core.federation.end_loan(
                record.host, allocation, outcome="lease_expired"
            )
        elif (
            allocation.state is AllocationState.ACTIVE
            and victim is not None
            and not victim.done
            and victim.conn is not None
        ):
            # The holder is still attached: reclaim through the ordinary
            # revocation path so its substrate adapts gracefully.
            core._start_reclaim(record.host, claimed_by=None)
        else:
            # Holder unknown or unreachable: nobody can release, free it;
            # the pass below serves its claim (with this machine, usually).
            core.free(record.host, outcome="lease_expired")
        span.end()
        yield from core._schedule()
