"""The application layer: ``app`` and ``subapp`` (paper §3, §5).

One **app** process runs per submitted job, on the machine where the user
submitted it.  It registers the job with the broker, spawns the actual
command as its child (with ``RB_APP_HOST``/``RB_APP_PORT`` in the inherited
environment — the breadcrumb every descendant ``rsh'`` follows home), and then
brokers between the job and the resource-management layer:

* answers intercepted ``rsh'`` requests (default redirection, or the
  two-phase external-module protocol for PVM/LAM-style systems);
* carries out revocations — **sequentially**, one machine at a time, which is
  where Figure 7's linear reallocation cost comes from;
* reports released machines and job completion to the broker.

One **subapp** process runs per remotely acquired machine.  It fetches the
real command from the app, spawns it *as the job's user* (so Unix signal
permissions work out even though the broker itself is another user), reports
its exit, and on revocation sends SIGTERM, waits out the grace period, then
SIGKILLs — the paper's "sends a standard Unix signal to the child process,
and if the child does not terminate within a specified amount of time, the
subapp terminates the child process".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.broker import protocol
from repro.broker.modules import (
    expect_marker_path,
    grow_program,
    halt_program,
    shrink_program,
)
from repro.cluster import ports
from repro.os.errors import (
    ConnectionClosed,
    ConnectionRefused,
    NoSuchHost,
    NoSuchProgram,
)
from repro.os.retry import connect_with_backoff
from repro.os.signals import SIGKILL, SIGTERM
from repro.rsl import is_symbolic_hostname, parse_rsl
from repro.sim.stores import Store


def _send_broker(st, message) -> bool:
    """Send to the broker unless the management link is gone; True if sent.

    The paper's stance is that the job outlives its manager: losing the
    broker degrades the job to an unmanaged one instead of killing it, so
    every broker send funnels through this guard.
    """
    if st.broker_lost:
        return False
    if protocol.try_send(st.broker, message):
        return True
    st.broker_lost = True
    return False


# ---------------------------------------------------------------------------
# app
# ---------------------------------------------------------------------------


@dataclass
class _SubappRecord:
    host: str
    conn: Any
    exited: Any  # Event fired with the child's exit code
    pid: Optional[int] = None


@dataclass
class _AppState:
    jobid: int = -1
    #: Broker incarnation that acked our submit; sessions resume by
    #: (jobid, epoch) after a broker crash.
    epoch: int = 1
    module: Optional[str] = None
    firm: bool = True
    broker: Any = None
    broker_host: str = ""
    #: Well-known broker addresses in dial order (primary first, then the
    #: warm standby when one is configured): a resume after a failover must
    #: find whichever incarnation is alive.
    broker_hosts: List[str] = field(default_factory=list)
    #: Registration fields, kept verbatim so a resume can replay them to a
    #: fresh broker incarnation that never saw the original submit.
    rsl_text: str = ""
    command: List[str] = field(default_factory=list)
    adaptive: bool = False
    inbox: Store = None  # type: ignore[assignment]
    waiters: Dict[int, Any] = field(default_factory=dict)
    tokens: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    subapps: Dict[str, _SubappRecord] = field(default_factory=dict)
    #: In-flight machine requests by reqid (symbolic name + firmness),
    #: resubmitted verbatim when the session resumes on a new broker.
    outstanding: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    pending_add: Set[str] = field(default_factory=set)
    revoking: Set[str] = field(default_factory=set)
    broker_lost: bool = False
    reqids: Any = None
    tokenids: Any = None
    #: FIFO of ("grow"|"shrink", host, trace-context): module scripts run one
    #: at a time — they share user-level state like ~/.pvmrc, exactly as the
    #: real scripts in the paper do.
    module_queue: Store = None  # type: ignore[assignment]
    #: Observability: the run-wide tracer and this app's ``app.run`` span.
    tracer: Any = None
    span: Any = None
    #: The ``actor`` attribute of this app's spans (a sampled-out span keeps
    #: no attributes to read it back from).
    actor: str = ""


def app_main(proc):
    """Program body: ``argv = ["app", rsl_text, command, args...]``."""
    from repro.obs import context_from_environ, tracer_of

    if len(proc.argv) < 3:
        return 1
    rsl_text, command = proc.argv[1], proc.argv[2:]
    broker_host = proc.environ.get("RB_BROKER_HOST")
    if broker_host is None:
        return 1
    standby_host = proc.environ.get("RB_BROKER_STANDBY")
    broker_hosts = list(
        dict.fromkeys([broker_host] + ([standby_host] if standby_host else []))
    )
    cal = proc.machine.network.calibration
    rsl = parse_rsl(rsl_text)
    tracer = tracer_of(proc)
    actor = f"app:{proc.machine.name}"
    app_span = tracer.start(
        "app.run",
        parent=context_from_environ(proc.environ),
        actor=actor,
        host=proc.machine.name,
        argv=list(command),
    )
    proc.terminated.add_callback(
        lambda ev: app_span.end(code=ev.value) if not app_span.finished else None
    )
    register_span = tracer.start(
        "app.register", parent=app_span, actor=actor
    )

    # One-time submission cost (app startup + registration bookkeeping).
    yield proc.sleep(cal.app_submit)

    port = proc.machine.network.ephemeral_port(proc.machine)
    listener = proc.listen(port)
    try:
        from repro.obs import metrics_of

        broker = yield from connect_with_backoff(
            proc,
            [broker_host],
            ports.BROKER,
            counter=metrics_of(proc).counter("app.connect_retries"),
        )
    except (ConnectionRefused, NoSuchHost):
        register_span.end(error="broker unreachable")
        return 1
    sent = protocol.try_send(
        broker,
        protocol.attach_trace(
            protocol.submit(
                user=proc.uid,
                host=proc.machine.name,
                rsl=rsl_text,
                argv=command,
                adaptive=rsl.adaptive,
            ),
            app_span.context,
        ),
    )
    if not sent:
        register_span.end(error="broker link lost")
        return 1
    try:
        ack = yield broker.recv()
    except ConnectionClosed:
        register_span.end(error="broker hung up")
        return 1
    register_span.end(jobid=int(ack["jobid"]))
    app_span.set(jobid=int(ack["jobid"]))

    st = _AppState(
        jobid=int(ack["jobid"]),
        epoch=int(ack.get("epoch", 1)),
        module=rsl.module,
        # Firmness of this job's machine requests: explicit demand (module
        # consoles, rigid jobs) preempts; pure adaptive expansion does not.
        firm=(not rsl.adaptive) or (rsl.module is not None),
        broker=broker,
        broker_host=broker_host,
        broker_hosts=broker_hosts,
        rsl_text=rsl_text,
        command=list(command),
        adaptive=rsl.adaptive,
        inbox=Store(proc.env),
        reqids=itertools.count(1),
        tokenids=itertools.count(1),
        module_queue=Store(proc.env),
        tracer=tracer,
        span=app_span,
        actor=actor,
    )

    # The paper's start_script RSL extension: a user-supplied setup program
    # (e.g. one that writes the job's hostfile) runs to completion before
    # the job itself starts.
    if rsl.start_script is not None:
        try:
            script = proc.spawn([rsl.start_script])
        except NoSuchProgram:
            _send_broker(st, protocol.job_done(st.jobid, 1))
            return 1
        script_code = yield proc.wait(script)
        if script_code != 0:
            _send_broker(st, protocol.job_done(st.jobid, script_code))
            return int(script_code)

    child = proc.spawn(
        command,
        environ={
            "RB_APP_HOST": proc.machine.name,
            "RB_APP_PORT": str(port),
            "RB_JOBID": str(st.jobid),
            # Descendant rsh' invocations parent their spans under the app.
            **app_span.environ(),
        },
    )

    proc.thread(_broker_reader(proc, st), name="broker-reader")
    proc.thread(_acceptor(proc, st, listener), name="acceptor")
    if st.module is not None:
        proc.thread(_module_runner(proc, st), name="module-runner")
        # The paper's count extension: "(count>=4) ... is a request to
        # execute a PVM program on at least four machines."  Ask the broker
        # for the extra machines as part of startup; each grant arrives as
        # an async_grant and flows through the module-grow path, so the
        # virtual machine reaches the requested size.  The requests go out
        # only after the runtime has had a moment to boot — a grow script
        # poking a master daemon that does not exist yet helps nobody.
        if rsl.count_min > 1:
            proc.thread(
                _presize(proc, st, rsl.count_min - 1), name="presize"
            )

    # -- main control loop (serializes revocations) -------------------------
    while True:
        get = st.inbox.get()
        outcome = yield proc.env.any_of([get, child.terminated])
        if child.terminated in outcome:
            st.inbox.cancel(get)
            break
        msg = get.value
        kind = msg.get("type")
        if kind == "revoke":
            yield from _handle_revoke(proc, st, msg, cal)
        elif kind == "async_grant":
            _begin_module_add(proc, st, msg["host"], protocol.trace_of(msg))
        elif kind == "subapp_gone":
            _handle_subapp_gone(st, msg["host"])
        elif kind == "halt":
            # Broker-initiated job stop: through the halt module when there
            # is one (a graceful virtual-machine teardown), otherwise via a
            # plain SIGTERM to the job.  Either way the child's exit drives
            # the normal shutdown path.
            if st.module is not None:
                try:
                    proc.spawn([halt_program(st.module)])
                except NoSuchProgram:
                    child.kill_tree(SIGTERM, sender=proc)
            elif child.is_alive:
                child.kill_tree(SIGTERM, sender=proc)
        elif kind == "broker_lost":
            st.broker_lost = True
            # Try to resume the session on a (re)started broker; if that
            # fails the job simply keeps running unmanaged — the paper's
            # stance is that the job outlives its manager.
            yield from _resume_broker_session(proc, st)

    # -- shutdown -------------------------------------------------------------
    code = child.exit_code
    _send_broker(st, protocol.job_done(st.jobid, code))
    for record in list(st.subapps.values()):
        protocol.try_send(record.conn, protocol.subapp_revoke())
    return code


def _presize(proc, st, extra_machines):
    """Request the RSL count's extra machines once the runtime is up."""
    yield proc.sleep(3.0)
    for _ in range(extra_machines):
        reqid = next(st.reqids)
        st.outstanding[reqid] = {"symbolic": "anyhost", "firm": True}
        if not _send_broker(
            st, protocol.machine_request(st.jobid, "anyhost", reqid, firm=True)
        ):
            st.outstanding.pop(reqid, None)
            return


def _resume_broker_session(proc, st):
    """Redial the broker and reattach this job's session by (jobid, epoch).

    Runs inline in the app's control loop after the reader reports EOF.  On
    success the broker knows the job again (holdings re-adopted, unanswered
    machine requests resubmitted) and a fresh reader thread takes over; on
    failure every blocked machine-wait is denied and the job stays unmanaged.
    """
    from repro.obs import metrics_of

    cal = proc.machine.network.calibration
    metrics = metrics_of(proc)
    span = st.tracer.start(
        "app.resume",
        parent=st.span,
        actor=st.actor,
        jobid=st.jobid,
        epoch=st.epoch,
    )
    st.broker.close()
    try:
        # Alternate across the well-known addresses: after a failover the
        # live broker answers at the standby's address, not the primary's.
        conn = yield from connect_with_backoff(
            proc,
            st.broker_hosts or [st.broker_host],
            ports.BROKER,
            attempts=cal.broker_resume_attempts,
            counter=metrics.counter("app.resume_connect_retries"),
        )
    except (ConnectionRefused, NoSuchHost):
        metrics.counter("app.resume_failures").inc()
        span.end(outcome="unreachable")
        _fail_waiters(st)
        return
    # Everything the new incarnation needs: what we hold (live subapps plus
    # grants still in the module-grow pipeline) and what we asked for but
    # never saw answered.
    holdings = sorted(set(st.subapps) | st.pending_add)
    pending = [
        {"reqid": reqid, "symbolic": info["symbolic"], "firm": info["firm"]}
        for reqid, info in sorted(st.outstanding.items())
    ]
    sent = protocol.try_send(
        conn,
        protocol.attach_trace(
            protocol.resume(
                st.jobid,
                st.epoch,
                user=proc.uid,
                host=proc.machine.name,
                rsl=st.rsl_text,
                argv=st.command,
                adaptive=st.adaptive,
                holdings=holdings,
                pending=pending,
            ),
            span.context,
        ),
    )
    ack = None
    if sent:
        try:
            ack = yield conn.recv()
        except ConnectionClosed:
            ack = None
    if not (ack and ack.get("type") == "resume_ack" and ack.get("ok")):
        conn.close()
        metrics.counter("app.resume_failures").inc()
        span.end(outcome="refused" if ack else "lost")
        _fail_waiters(st)
        return
    st.broker = conn
    st.epoch = int(ack.get("epoch", st.epoch))
    st.broker_lost = False
    proc.thread(_broker_reader(proc, st), name="broker-reader")
    metrics.counter("app.sessions_resumed").inc()
    span.end(outcome="resumed", epoch=st.epoch)


def _fail_waiters(st):
    """Deny every in-flight machine wait: the job is now unmanaged.

    Blocked ``rsh'`` chains get the ordinary denial path instead of hanging
    on a waiter no broker will ever answer."""
    for reqid in sorted(st.waiters):
        waiter = st.waiters.pop(reqid)
        if not waiter.triggered:
            waiter.succeed(None)
    st.outstanding.clear()


def _broker_reader(proc, st):
    """Route broker messages: grants to waiters, control to the inbox."""
    while True:
        try:
            msg = yield st.broker.recv()
        except ConnectionClosed:
            st.inbox.put_nowait({"type": "broker_lost"})
            return
        kind = msg.get("type")
        if kind in ("machine_grant", "machine_denied"):
            # Answered: the request is no longer outstanding for resume.
            st.outstanding.pop(msg["reqid"], None)
        if kind == "machine_grant":
            waiter = st.waiters.pop(msg["reqid"], None)
            if waiter is not None:
                waiter.succeed(msg["host"])
            else:
                # Asynchronous phase-II grant for a module job.  Forward the
                # grant's trace context so the module grow stays connected.
                st.inbox.put_nowait(
                    protocol.attach_trace(
                        {"type": "async_grant", "host": msg["host"]},
                        protocol.trace_of(msg),
                    )
                )
        elif kind == "machine_denied":
            waiter = st.waiters.pop(msg["reqid"], None)
            if waiter is not None:
                waiter.succeed(None)
        elif kind in ("revoke", "halt"):
            st.inbox.put_nowait(msg)


def _acceptor(proc, st, listener):
    while True:
        try:
            conn = yield listener.accept()
        except ConnectionClosed:
            return
        proc.thread(_client_handler(proc, st, conn), name="app-client")


def _client_handler(proc, st, conn):
    try:
        first = yield conn.recv()
    except ConnectionClosed:
        conn.close()
        return
    kind = first.get("type")
    if kind == "rsh_request":
        yield from _handle_rsh_request(proc, st, conn, first)
        conn.close()
    elif kind == "subapp_hello":
        yield from _handle_subapp(proc, st, conn, first)
    else:
        conn.close()


# -- rsh' requests -------------------------------------------------------------


def _make_token(proc, st, argv, host):
    token = f"tok{proc.pid}-{next(st.tokenids)}"
    st.tokens[token] = {"argv": list(argv), "host": host}
    return token


def _handle_rsh_request(proc, st, conn, msg):
    cal = proc.machine.network.calibration
    host, argv = msg["host"], msg["argv"]
    span = st.tracer.start(
        "app.rsh_request",
        parent=protocol.trace_of(msg) or st.span,
        actor=st.actor,
        host=host,
    )

    if not is_symbolic_hostname(host):
        # Phase II of the module protocol: a real name we just arranged.
        if host in st.pending_add:
            st.pending_add.discard(host)
            proc.unlink_file(expect_marker_path(host))
            token = _make_token(proc, st, argv, host)
            protocol.try_send(
                conn,
                protocol.rsh_exec(host, wrap=True, token=token, jobid=st.jobid),
            )
            span.end(path="expected")
        else:
            # A host the user named explicitly: let it proceed untouched.
            protocol.try_send(conn, protocol.rsh_exec(host, wrap=False))
            span.end(path="passthrough")
        return

    # Symbolic name: a just-in-time allocation request.
    reqid = next(st.reqids)
    waiter = proc.env.event()
    st.waiters[reqid] = waiter
    st.outstanding[reqid] = {"symbolic": host, "firm": st.firm}
    wait_span = st.tracer.start(
        "app.machine_wait", parent=span, actor=st.actor, reqid=reqid
    )
    if not _send_broker(
        st,
        protocol.attach_trace(
            protocol.machine_request(st.jobid, host, reqid, firm=st.firm),
            wait_span.context,
        ),
    ):
        st.waiters.pop(reqid, None)
        st.outstanding.pop(reqid, None)
        wait_span.end(outcome="broker_lost")
        protocol.try_send(conn, protocol.rsh_fail("broker unreachable"))
        span.end(path="broker_lost")
        return
    if st.module is not None:
        # Module path: bounded wait, then report failure (phase I).  The
        # request stays queued broker-side; a later grant arrives as an
        # async_grant and triggers phase II then.
        outcome = yield proc.env.any_of(
            [waiter, proc.env.timeout(cal.module_request_timeout)]
        )
        if waiter in outcome and waiter.value is not None:
            target = waiter.value
            wait_span.end(outcome="granted", host=target)
            protocol.try_send(conn, protocol.rsh_fail("deferred to module grow"))
            _begin_module_add(proc, st, target, wait_span.context)
            span.end(path="module")
        else:
            st.waiters.pop(reqid, None)  # future grant -> async path
            wait_span.end(outcome="queued")
            protocol.try_send(conn, protocol.rsh_fail("request queued"))
            span.end(path="module")
        return

    # Default path: block until the broker produces a machine, then
    # redirect the rsh there, wrapped with a subapp.
    target = yield waiter
    if target is None:
        wait_span.end(outcome="denied")
        protocol.try_send(conn, protocol.rsh_fail("request denied"))
        span.end(path="denied")
        return
    wait_span.end(outcome="granted", host=target)
    token = _make_token(proc, st, argv, target)
    protocol.try_send(
        conn, protocol.rsh_exec(target, wrap=True, token=token, jobid=st.jobid)
    )
    span.end(path="redirected", target=target)


def _begin_module_add(proc, st, target, ctx=None):
    """Phase II: mark the host expected and queue ``<module>_grow <host>``."""
    st.pending_add.add(target)
    proc.write_file(expect_marker_path(target), "1\n")
    st.module_queue.put_nowait(("grow", target, ctx))


def _module_fallback(proc, st, verb, host):
    """Recover from a module script that cannot do its job.

    A grow that never happened denies the grant — the machine goes straight
    back to the broker instead of leaking; a shrink falls back to the blunt
    instrument (subapp SIGTERM/SIGKILL), which always works."""
    if verb == "grow":
        st.pending_add.discard(host)
        proc.unlink_file(expect_marker_path(host))
        _send_broker(st, protocol.released(st.jobid, host))
    else:
        record = st.subapps.get(host)
        if record is not None:
            protocol.try_send(record.conn, protocol.subapp_revoke())


def _module_runner(proc, st):
    """Run the job's module scripts strictly one at a time.

    Each run is bounded: a script that neither exits nor makes progress
    within ``module_script_deadline`` (a wedged master daemon, a console
    hanging on a dead host) is SIGKILLed and retried up to
    ``module_script_retries`` times, after which :func:`_module_fallback`
    denies the grow or force-shrinks — a stuck user script must not wedge
    the whole two-phase protocol."""
    from repro.obs import metrics_of

    cal = proc.machine.network.calibration
    timeouts = metrics_of(proc).counter("app.module_script_timeouts")
    while True:
        verb, host, ctx = yield st.module_queue.get()
        program = (
            grow_program(st.module) if verb == "grow" else shrink_program(st.module)
        )
        span = st.tracer.start(
            f"module.{program}",
            parent=ctx or st.span,
            actor=st.actor,
            host=host,
        )
        missing = False
        wedged = False
        code = None
        for _attempt in range(cal.module_script_retries + 1):
            try:
                # The script's own children (console commands, rsh chains)
                # parent under the module span via the environ breadcrumb.
                script = proc.spawn([program, host], environ=span.environ())
            except NoSuchProgram:
                missing = True
                break
            deadline = proc.sleep(cal.module_script_deadline)
            try:
                yield proc.env.any_of([script.terminated, deadline])
            finally:
                deadline.cancel()
            if script.terminated.triggered:
                wedged = False
                code = script.exit_code
                break
            wedged = True
            timeouts.inc()
            if script.is_alive:
                script.kill_tree(SIGKILL, sender=proc)
        if missing or wedged:
            span.end(error="no such program" if missing else "script wedged")
            _module_fallback(proc, st, verb, host)
            continue
        span.end(code=code)
        if verb == "grow" and host in st.pending_add:
            # The grow script finished without the job ever rsh-ing to the
            # granted host (e.g. the runtime considered it already present).
            # Give the machine back instead of leaking the allocation.
            st.pending_add.discard(host)
            proc.unlink_file(expect_marker_path(host))
            _send_broker(st, protocol.released(st.jobid, host))


# -- subapp sessions -------------------------------------------------------


def _handle_subapp(proc, st, conn, hello):
    token = hello.get("token")
    info = st.tokens.pop(token, None)
    if info is None:
        protocol.try_send(conn, {"type": "subapp_abort"})
        conn.close()
        return
    host = hello["host"]
    record = _SubappRecord(host=host, conn=conn, exited=proc.env.event())
    st.subapps[host] = record
    protocol.try_send(conn, protocol.subapp_run(info["argv"]))
    code = None
    try:
        while True:
            msg = yield conn.recv()
            kind = msg.get("type")
            if kind == "subapp_started":
                record.pid = msg["pid"]
            elif kind == "subapp_exit":
                code = msg.get("code")
                break
    except ConnectionClosed:
        code = None
    st.subapps.pop(host, None)
    if not record.exited.triggered:
        record.exited.succeed(code)
    st.inbox.put_nowait({"type": "subapp_gone", "host": host, "code": code})
    conn.close()


# -- revocation ---------------------------------------------------------------


def _handle_revoke(proc, st, msg, cal):
    host = msg["host"]
    span = st.tracer.start(
        "app.revoke",
        parent=protocol.trace_of(msg) or st.span,
        actor=st.actor,
        host=host,
    )
    record = st.subapps.get(host)
    if record is None:
        # Nothing of ours runs there (e.g. a not-yet-consumed pending add).
        if host in st.pending_add:
            st.pending_add.discard(host)
            proc.unlink_file(expect_marker_path(host))
        _send_broker(st, protocol.released(st.jobid, host))
        span.end(path="idle")
        return
    st.revoking.add(host)
    if st.module is not None:
        # Ask the job itself to drop the host, via the user's module script
        # (queued: scripts share user state); the runtime shutting down its
        # remote process makes the subapp's child exit, which we await below.
        st.module_queue.put_nowait(("shrink", host, span.context))
    else:
        protocol.try_send(record.conn, protocol.subapp_revoke())
    yield record.exited
    _send_broker(st, protocol.released(st.jobid, host))
    span.end(path="module" if st.module is not None else "subapp")


def _handle_subapp_gone(st, host):
    if host in st.revoking:
        # The revocation handler already reported the release.
        st.revoking.discard(host)
        return
    if not st.broker_lost:
        _send_broker(st, protocol.released(st.jobid, host))


# ---------------------------------------------------------------------------
# subapp
# ---------------------------------------------------------------------------


def subapp_main(proc):
    """Program body: ``argv = ["subapp", app_host, app_port, token]``."""
    if len(proc.argv) < 4:
        return 1
    app_host, app_port, token = (
        proc.argv[1],
        int(proc.argv[2]),
        proc.argv[3],
    )
    cal = proc.machine.network.calibration
    yield proc.sleep(cal.subapp_startup)
    try:
        conn = yield proc.connect(app_host, app_port)
    except (ConnectionRefused, NoSuchHost):
        return 1
    if not protocol.try_send(
        conn, protocol.subapp_hello(token, proc.machine.name, proc.pid)
    ):
        return 1
    try:
        msg = yield conn.recv()
    except ConnectionClosed:
        return 1
    if msg.get("type") != "subapp_run":
        conn.close()
        return 1

    child = proc.spawn(msg["argv"])
    protocol.try_send(conn, protocol.subapp_started(child.pid))
    # Stay attached: the rsh chain that started us returns when the command
    # finishes — or as soon as the command itself daemonizes (a pvmd-style
    # runtime daemon), in which case we detach with it.

    recv_ev = conn.recv()
    daemon_ev = child.daemonized  # dropped from the wait set once handled
    while True:
        wait_set = [child.terminated, recv_ev]
        if daemon_ev is not None:
            wait_set.append(daemon_ev)
        try:
            yield proc.env.any_of(wait_set)
        except ConnectionClosed:
            # The failed receive holds the exception, whose traceback holds
            # this frame: let go of it, or the three are a reference cycle.
            del recv_ev, wait_set
            # The app (and so probably the job) is gone: reclaim the machine.
            if child.is_alive:
                child.kill_tree(SIGKILL, sender=proc)
            return 1
        if daemon_ev is not None and daemon_ev.processed:
            proc.daemonize()
            daemon_ev = None
        if child.terminated.processed:
            protocol.try_send(
                conn, protocol.subapp_exit(proc.machine.name, child.exit_code)
            )
            conn.close()
            # Our own exit status stands in for the command's (the rsh chain
            # only distinguishes success from failure).
            return 0 if child.exit_code == 0 else 1
        if recv_ev.processed:
            msg = recv_ev.value
            recv_ev = conn.recv()
            if msg.get("type") == "subapp_revoke" and child.is_alive:
                yield from _graceful_kill(proc, child, cal.sigterm_grace)


def _graceful_kill(proc, child, grace):
    """SIGTERM, wait out the grace period, then SIGKILL."""
    child.signal(SIGTERM, sender=proc)
    yield proc.env.any_of([child.terminated, proc.env.timeout(grace)])
    if child.is_alive:
        child.signal(SIGKILL, sender=proc)
