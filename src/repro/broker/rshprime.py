"""``rsh'`` — the broker's interposed remote shell (paper §5).

Registered under the name ``rsh`` in the broker's program directory, which
precedes the system directory on every managed machine's PATH; any program
that execs ``rsh`` without a hard-coded absolute path gets this wrapper
(required condition 2 of §5.1).

Decision table:

=====================  ==========================================
situation               behaviour
=====================  ==========================================
no ``RB_APP_PORT``      passthrough to the real rsh (the user is
                        not using the broker; overhead ~0.2 ms)
symbolic host name      ask the app for a just-in-time machine;
                        then redirect through a subapp (default
                        path) or fail (module phase I)
real name, expected     the marker ``~/.rb_expect_<host>`` says the
                        broker arranged this host: wrap in a subapp
real name, plain        passthrough to the real rsh
=====================  ==========================================
"""

from __future__ import annotations

from repro.broker import protocol
from repro.broker.modules import expect_marker_path
from repro.os.errors import ConnectionClosed, ConnectionRefused, NoSuchHost
from repro.rsh.client import RshExit, remote_exec
from repro.rsl import is_symbolic_hostname


def rshprime_main(proc):
    """Program body: ``argv = ["rsh", host, command, args...]``."""
    from repro.obs import context_from_environ, tracer_of

    if len(proc.argv) < 3:
        return RshExit.ERROR
    host, command_argv = proc.argv[1], proc.argv[2:]
    cal = proc.machine.network.calibration
    span = tracer_of(proc).start(
        "rshprime",
        parent=context_from_environ(proc.environ),
        actor=f"rsh:{proc.machine.name}",
        host=host,
        argv=list(command_argv),
    )

    app_port = proc.environ.get("RB_APP_PORT")
    app_host = proc.environ.get("RB_APP_HOST")
    expected = not is_symbolic_hostname(host) and proc.file_exists(
        expect_marker_path(host)
    )

    if app_port is None or (not is_symbolic_hostname(host) and not expected):
        # Plain passthrough; marginal cost only (Table 3 "w/ host" rows).
        yield proc.sleep(cal.rshp_passthrough)
        code = yield from remote_exec(proc, host, command_argv)
        span.end(path="passthrough", code=code)
        return code

    # Consult the app process this job belongs to.
    yield proc.sleep(cal.rshp_symbolic_negotiation)
    try:
        conn = yield proc.connect(app_host, int(app_port))
    except (ConnectionRefused, NoSuchHost):
        span.end(path="negotiated", error="app unreachable")
        return RshExit.ERROR
    conn.send(
        protocol.attach_trace(
            protocol.rsh_request(host, command_argv, proc.uid), span.context
        )
    )
    try:
        reply = yield conn.recv()
    except ConnectionClosed:
        span.end(path="negotiated", error="app hung up")
        return RshExit.ERROR
    conn.close()
    # This frame lives as long as the remote command: it keeps no socket.
    del conn

    if reply.get("type") != "rsh_exec":
        # rsh_fail: module phase I, or denial.
        span.end(path="negotiated", error=reply.get("reason", "rsh_fail"))
        return RshExit.ERROR
    target = reply["target"]
    if reply.get("wrap"):
        # The jobid in the subapp's argv is what lets the target machine's
        # daemon inventory leases from its process table.
        remote_argv = [
            "subapp",
            app_host,
            str(app_port),
            reply["token"],
            str(reply["jobid"]),
        ]
    else:
        remote_argv = command_argv
    code = yield from remote_exec(proc, target, remote_argv)
    span.end(path="negotiated", target=target, code=code)
    return code
