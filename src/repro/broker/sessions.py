"""App sessions: submission, requests, orphaning and resumption.

One :class:`Sessions` component per broker incarnation serves the app side
of the broker port: a ``submit`` registers a job and its connection becomes
the job's session; the session carries machine requests, releases and the
final ``job_done``.  An app connection EOF with the job unfinished
*orphans* the session for ``session_resume_grace`` instead of finishing the
job outright, so an app that merely lost its link — or whose broker died
and came back (DESIGN.md §11) — can ``resume`` it under its old jobid.
"""

from __future__ import annotations

from functools import cached_property

from repro.broker import protocol
from repro.broker.records import AllocationState, PendingRequest
from repro.os.errors import ConnectionClosed


class Sessions:
    """The app sessions of one broker incarnation."""

    def __init__(self, core) -> None:
        self.core = core
        self.proc = core.proc
        self.state = core.state
        self.cal = core.cal
        self.tracer = core.tracer
        self.metrics = core.metrics
        self.service = core.service
        self.epoch = core.epoch

    @cached_property
    def _submits(self):
        return self.metrics.counter("broker.submits")

    def serve_app(self, conn, submit_msg):
        """Register a submitted job; its connection becomes the session."""
        core = self.core
        job = self.state.register_job(
            user=submit_msg["user"],
            home_host=submit_msg["host"],
            rsl_text=submit_msg["rsl"],
            argv=submit_msg["argv"],
            adaptive_hint=bool(submit_msg.get("adaptive")),
        )
        job.conn = conn
        core.job_spans[job.jobid] = self.tracer.start(
            "broker.job",
            parent=protocol.trace_of(submit_msg),
            actor="rbroker",
            host=self.proc.machine.name,
            jobid=job.jobid,
            user=job.user,
        )
        self._submits.inc()
        self.service.log(
            event="submit",
            jobid=job.jobid,
            user=job.user,
            rsl=submit_msg["rsl"],
            argv=list(submit_msg["argv"]),
        )
        protocol.try_send(conn, protocol.submit_ack(job.jobid, epoch=self.epoch))
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
            yield from self.core._finish_job(job, code=None)

    def serve_resume(self, conn, msg):
        """Reattach an app session lost to a broker (or link) failure.

        The job keeps its original jobid.  Reconciliation order matters for
        the no-double-grant guarantee: first drop ACTIVE allocations the app
        no longer claims (their grant message died with the old link), then
        adopt everything it does claim, then requeue its unanswered
        requests — deduped against requests already queued — and only then
        run the scheduler."""
        core = self.core
        jobid = int(msg["jobid"])
        span = self.tracer.start(
            "broker.resume",
            parent=protocol.trace_of(msg),
            actor="rbroker",
            jobid=jobid,
            epoch=self.epoch,
        )
        job = self.state.jobs.get(jobid)
        if job is None or job.placeholder:
            # Unknown, or held only for a lease adopted from a daemon
            # inventory: the resume message says what the job is.
            job = self.state.adopt_job(
                jobid=jobid,
                user=msg["user"],
                home_host=msg["host"],
                rsl_text=msg["rsl"],
                argv=msg["argv"],
                adaptive_hint=bool(msg.get("adaptive")),
            )
            core.job_spans[jobid] = self.tracer.start(
                "broker.job",
                parent=protocol.trace_of(msg),
                actor="rbroker",
                host=self.proc.machine.name,
                jobid=jobid,
                user=job.user,
                resumed=True,
            )
        if job.done:
            protocol.try_send(
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
                core.free(allocation.host, outcome="stale_allocation_dropped")
                self.service.log(
                    event="stale_allocation_dropped",
                    host=allocation.host,
                    jobid=jobid,
                )
        for host in sorted(claimed):
            record = self.state.machines.get(host)
            existing = record.allocation if record is not None else None
            if existing and existing.recovered and existing.jobid != jobid:
                # A journal-recovered allocation against a live app's
                # claim: the live side wins (the recovered holder may not
                # even exist any more).
                core.leases.drop_recovered(record, trusted=[jobid])
            adopted = self.state.adopt_allocation(
                host, jobid, now=now, lease_expires_at=now + self.cal.lease_ttl
            )
            if adopted is None:
                self.service.log(
                    event="lease_conflict", host=host, leases=[jobid]
                )
        for allocation in self.state.allocations_of(jobid):
            if allocation.state is AllocationState.RECLAIMING:
                # The revoke sent to the old session died with it: repeat it
                # so the reclamation can complete.
                protocol.try_send(conn, protocol.revoke(allocation.host))
        for entry in msg.get("pending", ()):
            reqid = int(entry["reqid"])
            # Not state.pending: that dedupe turns a chaos seed red (ROADMAP 11).
            if (jobid, reqid) in core.request_spans:
                continue  # still queued from this very incarnation
            self._queue_request(
                job,
                reqid,
                entry["symbolic"],
                bool(entry["firm"]),
                core.job_spans.get(jobid),
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
        protocol.try_send(
            conn, protocol.resume_ack(jobid, self.epoch, ok=True)
        )
        span.end(outcome="resumed")
        # Requests that waited out the orphan period were skipped (not
        # evaluated) by every pass in between: now that grants are
        # deliverable again they must be re-examined.
        self.state.mark_job_requests_dirty(jobid)
        yield from core._schedule()
        for peer in core.peers:
            peer.resumed(job)
        yield from self._session_loop(job, conn)

    def _queue_request(self, job, reqid, symbolic, firm, parent, **resubmitted):
        """Queue one machine request of ``job``: the pending entry, its
        ``broker.request`` span, the pending gauge and the log entry."""
        request = PendingRequest(
            reqid=reqid,
            jobid=job.jobid,
            symbolic=symbolic,
            firm=firm,
            arrived_at=self.proc.env.now,
        )
        self.state.pending.append(request)
        self.core.request_spans[(job.jobid, reqid)] = self.tracer.start(
            "broker.request",
            parent=parent,
            actor="rbroker",
            jobid=job.jobid,
            reqid=reqid,
            symbolic=symbolic,
            firm=firm,
            **resubmitted,
        )
        self.service.count_pending()
        self.service.log(
            event="machine_request",
            jobid=job.jobid,
            reqid=reqid,
            symbolic=symbolic,
            firm=firm,
            **resubmitted,
        )
        return request

    def _app_message(self, job, msg):
        core = self.core
        kind = msg.get("type")
        if kind == "machine_request":
            yield self.proc.sleep(self.cal.broker_decision)
            if job.done:
                return  # finished meanwhile, by the session a resume opened
            request = self._queue_request(
                job,
                msg["reqid"],
                msg["symbolic"],
                bool(msg["firm"]),
                protocol.trace_of(msg) or core.job_spans.get(job.jobid),
            )
            yield from core._schedule()
            if not any(peer.unplaced(job, request) for peer in core.peers):
                core._deny_if_unsatisfiable(job, request)
        elif kind == "released":
            yield from core._on_released(job, msg["host"])
        elif kind == "job_done":
            yield from core._finish_job(job, code=msg.get("code"))
