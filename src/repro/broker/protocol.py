"""Wire protocol between the broker, daemons, apps, subapps and rsh'.

All messages are dicts with a ``"type"`` key; the constructors below are the
single source of truth for their shapes.  Using plain dicts keeps the wire
format transparent in traces and lets tests build messages by hand.

Message flow summary (paper Figures 5 and 6):

=====================  =======================  ==============================
message                direction                 purpose
=====================  =======================  ==============================
daemon_hello            daemon -> broker         announce a machine (+ lease
                                                 inventory on re-registration)
daemon_report           daemon -> broker         periodic monitoring snapshot
                                                 (+ lease renewals); sent as a
                                                 compact delta *beacon* when
                                                 the machine's change probe
                                                 saw nothing move
submit                  app -> broker            register a job (RSL, user)
submit_ack              broker -> app            jobid assigned (+ broker epoch)
resume                  app -> broker            reattach a session by
                                                 (jobid, epoch) after broker loss
resume_ack              broker -> app            session resumed (or rejected)
machine_request         app -> broker            "job wants one more machine"
machine_grant           broker -> app            a machine is ready for the job
machine_denied          broker -> app            request cannot be satisfied
revoke                  broker -> app            take host away from this job
released                app -> broker            host given back
job_done                app -> broker            job finished; free everything
rsh_request             rsh' -> app              intercepted rsh
rsh_exec                app -> rsh'              run via real rsh (maybe wrapped)
rsh_fail                app -> rsh'              report failure (module phase I)
subapp_hello            subapp -> app            subapp is up on target host
subapp_run              app -> subapp            the command to spawn
subapp_started          subapp -> app            child pid running
subapp_revoke           app -> subapp            kill the child (grace period)
subapp_exit             subapp -> app            child exited with code
=====================  =======================  ==============================
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.os.errors import ConnectionClosed

Message = Dict[str, Any]


def try_send(conn, message: Message) -> bool:
    """Send unless the connection died under us; True if the message went
    out.  The broker serves many sessions from one process — one dead peer
    must never take the scheduler down with it."""
    try:
        conn.send(message)
        return True
    except ConnectionClosed:
        return False


# -- trace context propagation -----------------------------------------------
#
# Any message may carry a ``"trace"`` key: the span context of the operation
# that caused it (see :mod:`repro.obs.spans`).  Receivers parent their own
# spans under it, which is what stitches one submission's rsh', app, broker
# and module activity into a single trace tree across process and machine
# boundaries.  The key is optional everywhere: hand-built test messages and
# untraced callers keep working unchanged.


def attach_trace(message: Message, context: Optional[Dict[str, int]]) -> Message:
    """Attach a span context to ``message`` (no-op on None); returns it.

    The context is stored as given, not copied: ``Span.context`` builds a
    fresh dict, and no receiver mutates a message's ``"trace"``."""
    if context:
        message["trace"] = context
    return message


def trace_of(message: Message) -> Optional[Dict[str, int]]:
    """The span context ``message`` carries, if any."""
    return message.get("trace")


# -- resource-management layer ----------------------------------------------


def daemon_hello(
    host: str,
    leases: Optional[List[int]] = None,
    resumed: bool = False,
) -> Message:
    """Daemon -> broker: announce the machine this daemon watches.

    ``leases`` is the machine's lease inventory — the sorted jobids with a
    live subapp on the host — so a freshly restarted broker can re-adopt
    allocations it lost with its state.  ``resumed`` marks re-registration
    after a lost broker connection (vs. first boot).
    """
    return {
        "type": "daemon_hello",
        "host": host,
        "leases": sorted(leases or ()),
        "resumed": bool(resumed),
    }


def daemon_report(
    snapshot: Message, leases: Optional[List[int]] = None
) -> Message:
    """Daemon -> broker: one periodic monitoring snapshot.

    ``leases`` piggybacks lease renewal on the heartbeat: every jobid listed
    still has a live subapp on the machine, so its grant's TTL is refreshed.
    """
    return {
        "type": "daemon_report",
        "snapshot": snapshot,
        "leases": sorted(leases or ()),
    }


def daemon_beacon(time: float) -> Message:
    """Daemon -> broker: a delta heartbeat — "nothing monitorable changed
    since my last full report".

    Sent instead of :func:`daemon_report` when the machine's change probe
    (cpu load, process-table version, console state, login count) is
    unchanged: it renews liveness and the leases from the last full report
    without shipping (or re-ingesting) a snapshot.  Deliberately the same
    ``"type"`` as a full report so fault-injection drop rules, and anything
    else filtering on message type, treat both report flavours alike.
    """
    return {"type": "daemon_report", "delta": True, "time": time}


def submit(
    user: str, host: str, rsl: str, argv: List[str], adaptive: bool
) -> Message:
    """App -> broker: register a job (user, home host, RSL, command)."""
    return {
        "type": "submit",
        "user": user,
        "host": host,
        "rsl": rsl,
        "argv": list(argv),
        "adaptive": adaptive,
    }


def submit_ack(jobid: int, epoch: int = 1) -> Message:
    """Broker -> app: the jobid assigned to a submission, plus the broker
    incarnation (``epoch``) that assigned it — the pair the app later resumes
    its session by if this broker dies."""
    return {"type": "submit_ack", "jobid": jobid, "epoch": epoch}


def resume(
    jobid: int,
    epoch: int,
    user: str,
    host: str,
    rsl: str,
    argv: List[str],
    adaptive: bool,
    holdings: List[str],
    pending: List[Message],
) -> Message:
    """App -> broker: reattach a session lost to a broker (or link) failure.

    Carries everything a fresh broker incarnation needs to reconstruct the
    job: the registration fields (as in :func:`submit`), the hosts the app
    still claims to hold (``holdings``), and the machine requests it sent but
    never saw answered (``pending``: dicts of reqid/symbolic/firm)."""
    return {
        "type": "resume",
        "jobid": jobid,
        "epoch": epoch,
        "user": user,
        "host": host,
        "rsl": rsl,
        "argv": list(argv),
        "adaptive": adaptive,
        "holdings": list(holdings),
        "pending": [dict(entry) for entry in pending],
    }


def resume_ack(jobid: int, epoch: int, ok: bool = True) -> Message:
    """Broker -> app: the session was resumed under ``epoch`` (or rejected —
    e.g. the broker already saw the job finish)."""
    return {"type": "resume_ack", "jobid": jobid, "epoch": epoch, "ok": ok}


def machine_request(jobid: int, symbolic: str, reqid: int, firm: bool) -> Message:
    """App -> broker: the job wants one more machine."""
    return {
        "type": "machine_request",
        "jobid": jobid,
        "symbolic": symbolic,
        "reqid": reqid,
        "firm": firm,
    }


def machine_grant(reqid: int, host: str) -> Message:
    """Broker -> app: ``host`` is ready for request ``reqid``."""
    return {"type": "machine_grant", "reqid": reqid, "host": host}


def machine_denied(reqid: int, reason: str) -> Message:
    """Broker -> app: request ``reqid`` can never be satisfied."""
    return {"type": "machine_denied", "reqid": reqid, "reason": reason}


def revoke(host: str) -> Message:
    """Broker -> app: give ``host`` back (gracefully)."""
    return {"type": "revoke", "host": host}


def released(jobid: int, host: str) -> Message:
    """App -> broker: ``host`` has been given back."""
    return {"type": "released", "jobid": jobid, "host": host}


def job_done(jobid: int, code: Optional[int]) -> Message:
    """App -> broker: the job exited; free all its holdings."""
    return {"type": "job_done", "jobid": jobid, "code": code}


# -- warm-standby replication and fencing ------------------------------------
#
# The primary broker serves a WAL-ship listener (``ports.SHIP``); the warm
# standby dials it, announces how much of the stream it already holds, and
# receives framed journal data plus heartbeats.  Promotion and the fencing
# handshake ride the daemon connections: every broker->daemon message that
# matters (welcome, grant install, lease renewal) is stamped with the sender's
# epoch, daemons remember the highest epoch they have ever witnessed, and a
# stale-epoch sender is answered with ``fence_reject`` — its cue to demote.


def ship_hello(host: str, stream: int, acked: int) -> Message:
    """Standby -> primary: subscribe to the WAL stream.

    ``stream`` identifies the primary incarnation whose stream the standby
    holds (its epoch); ``acked`` is how many characters of that stream it has
    durably applied.  A primary with a different stream id answers with a
    snapshot instead of a resend."""
    return {"type": "ship_hello", "host": host, "stream": stream, "acked": acked}


def ship_snapshot(stream: int, offset: int, state: Message, epoch: int) -> Message:
    """Primary -> standby: a full-state baseline at ``offset`` of stream
    ``stream`` — sent when the standby's stream id or offset cannot be
    resumed (first contact, or the primary compacted past it)."""
    return {
        "type": "ship_snapshot",
        "stream": stream,
        "offset": offset,
        "state": state,
        "epoch": epoch,
    }


def ship_frame(stream: int, offset: int, data: str) -> Message:
    """Primary -> standby: WAL characters ``[offset, offset + len(data))`` of
    stream ``stream``, in journal frame encoding."""
    return {"type": "ship_frame", "stream": stream, "offset": offset, "data": data}


def ship_ack(stream: int, acked: int) -> Message:
    """Standby -> primary: everything up to character ``acked`` of stream
    ``stream`` is applied and locally persisted."""
    return {"type": "ship_ack", "stream": stream, "acked": acked}


def ship_heartbeat(epoch: int, time: float) -> Message:
    """Primary -> standby: liveness beacon on the ship connection."""
    return {"type": "ship_heartbeat", "epoch": epoch, "time": time}


def daemon_welcome(epoch: int) -> Message:
    """Broker -> daemon: reply to ``daemon_hello`` naming the broker's epoch.

    The daemon records it as witnessed; a welcome from a *lower* epoch than
    the daemon has witnessed is answered with :func:`fence_reject`."""
    return {"type": "daemon_welcome", "epoch": epoch}


def grant_install(jobid: int, reqid: int, epoch: int) -> Message:
    """Broker -> daemon: a grant of this daemon's machine to ``jobid`` is
    being issued under ``epoch``.  The fencing write: a daemon that has
    witnessed a higher epoch rejects the install, and the grant never takes
    effect on the machine that matters."""
    return {"type": "grant_install", "jobid": jobid, "reqid": reqid, "epoch": epoch}


def lease_renew(epoch: int, jobids: List[int]) -> Message:
    """Broker -> daemon: the broker renewed these leases under ``epoch``
    (echo of the daemon's own piggybacked renewal, stamped so a stale
    ex-primary is detected on its very next renewal cycle)."""
    return {"type": "lease_renew", "epoch": epoch, "jobids": sorted(jobids)}


def fence_reject(stale_epoch: int, witnessed: int, host: str) -> Message:
    """Daemon -> broker: the message stamped ``stale_epoch`` was refused
    because this machine has witnessed ``witnessed``.  First such reply
    demotes the ex-primary."""
    return {
        "type": "fence_reject",
        "stale_epoch": stale_epoch,
        "witnessed": witnessed,
        "host": host,
    }


def fence_notice(epoch: int) -> Message:
    """Promoted broker -> ex-primary (on the ship port): a higher epoch
    exists; demote.  Closes the double-partition hole where an isolated
    ex-primary has no daemon left to reject it."""
    return {"type": "fence_notice", "epoch": epoch}


# -- federation: cross-shard machine borrowing --------------------------------
#
# Each broker shard serves a federation listener (``ports.FEDERATION``); a
# shard that cannot satisfy a request locally dials a sibling and asks to
# borrow one machine.  The donor revokes the machine into ``MIGRATING``
# (keeping the lease, renewed by the machine's daemon against the borrower's
# jobid) and installs an epoch-stamped grant on the daemon, so the PR-9
# witness fencing covers cross-shard grants exactly as local ones.  Every
# borrow exchange is one request/reply on a transient connection.


def borrow_request(
    shard: int,
    jobid: int,
    symbolic: str,
    rsl: str,
    adaptive: bool,
    firm: bool,
    reqid: int,
) -> Message:
    """Borrower shard -> donor shard: lend one machine for this request.

    ``shard`` is the borrower's index (for the loan record and the return
    path); ``jobid``/``reqid`` identify the borrower-side request the grant
    will serve; ``symbolic``/``rsl``/``adaptive`` let the donor run its own
    eligibility machinery over its own machines."""
    return {
        "type": "borrow_request",
        "shard": shard,
        "jobid": jobid,
        "symbolic": symbolic,
        "rsl": rsl,
        "adaptive": bool(adaptive),
        "firm": bool(firm),
        "reqid": reqid,
    }


def borrow_reply(
    ok: bool,
    host: str = "",
    platform: str = "",
    kind: str = "public",
    satisfiable: bool = False,
    reported: bool = True,
    shard: int = -1,
) -> Message:
    """Donor shard -> borrower shard: the loan decision.

    On ``ok`` the donor has already marked ``host`` MIGRATING and installed
    the fencing grant on its daemon; ``platform``/``kind`` seed the
    borrower's record of the machine.  On refusal, ``satisfiable`` says
    whether any donor machine could *ever* match (the borrower denies the
    app only once every shard answers False with ``reported`` True —
    i.e. with complete knowledge of its partition)."""
    return {
        "type": "borrow_reply",
        "ok": bool(ok),
        "host": host,
        "platform": platform,
        "kind": kind,
        "satisfiable": bool(satisfiable),
        "reported": bool(reported),
        "shard": shard,
    }


def borrow_release(shard: int, host: str, jobid: int) -> Message:
    """Borrower shard -> donor shard: the loan of ``host`` ended (the
    borrower's job released it or finished); the donor may reclaim it for
    its own scheduling.  ``jobid`` guards against a stale release racing a
    re-loan of the same machine."""
    return {
        "type": "borrow_release",
        "shard": shard,
        "host": host,
        "jobid": jobid,
    }


def borrow_recall(host: str, jobid: int) -> Message:
    """Donor shard -> borrower shard: the donor is taking ``host`` back
    (owner at the console, lease expired, or the machine died).  The
    borrower revokes it from its job and forgets the record."""
    return {"type": "borrow_recall", "host": host, "jobid": jobid}


# -- user queries and control (paper §4.1: "Users communicate with
# ResourceBroker to query machine availability, to learn the status of
# queued jobs ...") ----------------------------------------------------------


def status_request() -> Message:
    """User tool -> broker: request the status summary."""
    return {"type": "status"}


def status_reply(summary: Message) -> Message:
    """Broker -> user tool: the status summary."""
    return {"type": "status_reply", "summary": summary}


def stats_request() -> Message:
    """User tool -> broker: request the live telemetry snapshot.

    Unlike :func:`status_request` (machine/job tables), this asks for the
    continuous-telemetry view: queue depths, dirty-set size, lease and
    adoption counts, scans-per-grant, per-phase latency digests and the
    observability layer's own self-metering."""
    return {"type": "stats"}


def stats_reply(stats: Message) -> Message:
    """Broker -> user tool: the live telemetry snapshot."""
    return {"type": "stats_reply", "stats": stats}


def halt_job(jobid: int) -> Message:
    """User tool -> broker: stop job ``jobid``."""
    return {"type": "halt_job", "jobid": jobid}


def halt_ack(jobid: int, ok: bool) -> Message:
    """Broker -> user tool: whether the halt was deliverable."""
    return {"type": "halt_ack", "jobid": jobid, "ok": ok}


def halt() -> Message:
    """Broker -> app: stop the whole job (module ``xxx_halt`` or SIGTERM)."""
    return {"type": "halt"}


# -- application layer -----------------------------------------------------


def rsh_request(host: str, argv: List[str], user: str) -> Message:
    """rsh' -> app: an intercepted rsh (host may be symbolic)."""
    return {"type": "rsh_request", "host": host, "argv": list(argv), "user": user}


def rsh_exec(
    target: str,
    wrap: bool,
    token: Optional[str] = None,
    jobid: Optional[int] = None,
) -> Message:
    """App -> rsh': proceed to ``target`` (wrapped in a subapp if ``wrap``).

    A wrapped exec names its ``token`` and ``jobid``: the jobid becomes the
    subapp's last argv field, which is what lets the machine's monitoring
    daemon inventory leases by scanning the process table."""
    if wrap and (token is None or jobid is None):
        raise ValueError("a wrapped exec names its token and jobid")
    return {
        "type": "rsh_exec",
        "target": target,
        "wrap": wrap,
        "token": token,
        "jobid": jobid,
    }


def rsh_fail(reason: str) -> Message:
    """App -> rsh': report failure (module phase I or denial)."""
    return {"type": "rsh_fail", "reason": reason}


def subapp_hello(token: str, host: str, pid: int) -> Message:
    """Subapp -> app: up on ``host``, presenting its token."""
    return {"type": "subapp_hello", "token": token, "host": host, "pid": pid}


def subapp_run(argv: List[str]) -> Message:
    """App -> subapp: the real command to spawn."""
    return {"type": "subapp_run", "argv": list(argv)}


def subapp_started(pid: int) -> Message:
    """Subapp -> app: the command is running as ``pid``."""
    return {"type": "subapp_started", "pid": pid}


def subapp_revoke() -> Message:
    """App -> subapp: kill the child (grace period applies)."""
    return {"type": "subapp_revoke"}


def subapp_exit(host: str, code: Optional[int]) -> Message:
    """Subapp -> app: the child exited with ``code``."""
    return {"type": "subapp_exit", "host": host, "code": code}
