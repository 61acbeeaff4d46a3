"""The virtual-machine daemon PVM and LAM share (master and slave modes).

PVM and LAM grow the same way: a master daemon on the user's machine
rsh-starts a slave daemon on each host it adds, and **refuses a slave from
any host it did not start** — the property that makes redirecting the
system's rsh insufficient and forces the broker's external-module protocol
(paper §5.3: "PVM and LAM programs will refuse to accept processes from
machines other than those they attempted to spawn").  This module is that
daemon, once.  A :class:`Dialect` holds what an outside observer can tell
apart per system; :data:`repro.systems.pvm.daemon.PVM` and
:data:`repro.systems.lam.daemon.LAM` are the two.

Master (``pvmd`` / ``lamd``)
    Listens on an ephemeral port, advertises ``"<host> <port>"`` in the
    dialect's advertisement file, keeps its membership file current, and
    serves client commands (``conf``, ``add``, ``delete``, ``spawn``,
    ``halt``) and slave registrations.

Slave (``pvmd -slave <master> <port>`` / ``lamd -remote <origin> <port>``)
    Started on a remote machine via rsh by the master's ``add``.  Registers,
    then daemonizes so the rsh returns.  Runs one task per spawn request;
    halts on the master's order, on master loss, or when fenced.

Clients — the PVM console and library, the LAM tools, the task farms —
reach the master with :func:`boot` or :func:`connect` and talk to it
through :func:`command`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.broker.daemon import witnessed_epoch
from repro.obs import context_from_environ, metrics_of, tracer_of
from repro.os.errors import (
    ConnectionClosed,
    ConnectionRefused,
    NoSuchHost,
    NoSuchProgram,
)
from repro.os.retry import connect_advertised
from repro.os.signals import SIGKILL


@dataclass(frozen=True)
class Dialect:
    """What one system's daemon looks like from outside."""

    #: Program name of the daemon; also its span actor (``pvmd:<host>``).
    daemon: str
    #: ``argv[1]`` that starts the daemon as a slave.
    slave_flag: str
    #: Home-relative advertisement file, ``"<host> <port>"``.
    advert: str
    #: Home-relative membership file, one host per line (observable without
    #: a round trip; experiment harnesses poll it to time asynchronous
    #: growth).
    members: str
    #: Home-relative startup lock: a client that decides to boot the master
    #: writes it, the master removes it once advertised (or on exit).
    lock: str
    #: :class:`~repro.calibration.Calibration` field: slave startup seconds.
    slave_startup: str
    #: Span around one host's add.
    add_span: str
    #: Counter of slaves that dropped out on an epoch fence.
    fenced: str
    #: What the clients raise: no master, or a protocol failure.
    error: type


def daemon_main(proc, dialect: Dialect):
    """Program body: master, or slave when ``argv[1]`` is the slave flag."""
    if len(proc.argv) >= 2 and proc.argv[1] == dialect.slave_flag:
        return (yield from _slave_main(proc, dialect))
    return (yield from _master_main(proc, dialect))


# ---------------------------------------------------------------------------
# master
# ---------------------------------------------------------------------------


class _Master:
    def __init__(self, proc, dialect, port):
        self.proc = proc
        self.dialect = dialect
        self.myhost = proc.machine.name
        self.port = port
        #: hostname -> slave connection (None for the master host itself).
        self.hosts = {self.myhost: None}
        #: hosts we have asked rshd to start a slave on and not yet heard from.
        self.expected = set()
        #: reply routing for in-flight slave spawn requests: host -> Event
        self.spawn_waiters = {}
        self.halted = proc.env.event()

    def publish_hosts(self) -> None:
        self.proc.write_file(
            self.dialect.members, "".join(h + "\n" for h in sorted(self.hosts))
        )


def _master_main(proc, dialect):
    port = proc.machine.network.ephemeral_port(proc.machine)
    listener = proc.listen(port)
    state = _Master(proc, dialect, port)
    proc.write_file(dialect.advert, f"{state.myhost} {port}\n")
    proc.unlink_file(dialect.lock)
    state.publish_hosts()
    while True:
        accept_ev = listener.accept()
        outcome = yield proc.env.any_of([accept_ev, state.halted])
        if state.halted in outcome:
            break
        proc.thread(
            _serve(proc, state, accept_ev.value), name=f"{dialect.daemon}-session"
        )
    proc.unlink_file(dialect.advert)
    proc.unlink_file(dialect.members)
    proc.unlink_file(dialect.lock)
    return 0


def _serve(proc, state, conn):
    """Dispatch one incoming connection: a client or a slave."""
    try:
        first = yield conn.recv()
    except ConnectionClosed:
        conn.close()
        return
    kind = first.get("type")
    if kind == "hello":
        yield from _slave_session(state, conn, first)
    elif kind == "command":
        yield from _client_session(proc, state, conn, first)
    else:
        conn.close()


def _slave_session(state, conn, hello):
    host = hello.get("host")
    if host not in state.expected:
        # The one rule both systems share: an unexpected machine may not
        # join the virtual machine.
        conn.send({"type": "reject", "reason": "unexpected host"})
        conn.close()
        return
    state.expected.discard(host)
    state.hosts[host] = conn
    state.publish_hosts()
    conn.send({"type": "ack"})
    try:
        while True:
            msg = yield conn.recv()
            if msg.get("type") == "spawned":
                waiter = state.spawn_waiters.pop(host, None)
                if waiter is not None:
                    waiter.succeed(msg.get("pid"))
    except ConnectionClosed:
        pass
    # Slave lost (machine revoked, daemon killed, network gone): drop the
    # host from the virtual machine and carry on.
    if state.hosts.get(host) is conn:
        del state.hosts[host]
        state.publish_hosts()
    conn.close()


def _client_session(proc, state, conn, first):
    msg = first
    while True:
        reply = yield from _command(proc, state, msg)
        try:
            conn.send({"type": "reply", **reply})
        except ConnectionClosed:
            pass
        if msg.get("cmd") == "halt":
            conn.close()
            if not state.halted.triggered:
                state.halted.succeed()
            return
        try:
            msg = yield conn.recv()
        except ConnectionClosed:
            conn.close()
            return


def _command(proc, state, msg):
    cmd = msg.get("cmd")
    if cmd == "conf":
        return {"hosts": sorted(state.hosts)}
    if cmd == "add":
        results = {}
        for host in msg.get("hosts", []):
            results[host] = yield from _add_host(proc, state, host, msg.get("trace"))
        return {"results": results}
    if cmd == "delete":
        results = {}
        for host in msg.get("hosts", []):
            results[host] = yield from _delete_host(proc, state, host)
        return {"results": results}
    if cmd == "spawn":
        tasks = yield from _spawn_tasks(
            proc, state, msg.get("argv", []), int(msg.get("count", 1))
        )
        return {"tasks": tasks}
    if cmd == "halt":
        for host in [h for h in list(state.hosts) if h != state.myhost]:
            yield from _delete_host(proc, state, host)
        return {"halted": True}
    return {"error": f"unknown command {cmd!r}"}


def _add_host(proc, state, host, ctx):
    """One host's add: rsh a slave daemon onto it."""
    if host in state.hosts:
        return "already"
    dialect = state.dialect
    span = tracer_of(proc).start(
        dialect.add_span,
        parent=ctx or context_from_environ(proc.environ),
        actor=f"{dialect.daemon}:{state.myhost}",
        host=host,
    )
    state.expected.add(host)
    slave = [dialect.daemon, dialect.slave_flag, state.myhost, str(state.port)]
    rsh = proc.spawn(["rsh", host, *slave], environ=span.environ())
    code = yield proc.wait(rsh)
    if code != 0:
        state.expected.discard(host)
        span.end(result="failed")
        return "failed"
    # The slave registered (it daemonizes only after our ack).
    result = "ok" if host in state.hosts else "failed"
    span.end(result=result)
    return result


def _delete_host(proc, state, host):
    conn = state.hosts.get(host)
    if conn is None:
        return "no-such-host"
    try:
        conn.send({"type": "halt"})
    except ConnectionClosed:
        pass
    # The slave session removes the host when the connection drops; wait
    # for that so deletes are observable when we reply.
    deadline = proc.env.timeout(5.0)
    while host in state.hosts and not deadline.processed:
        yield proc.env.any_of([proc.env.timeout(0.01), deadline])
    return "ok" if host not in state.hosts else "timeout"


def _spawn_tasks(proc, state, argv, count):
    """Round-robin ``count`` task processes across the virtual machine."""
    if not argv:
        return []
    placed = []
    hosts = sorted(state.hosts)
    for index in range(count):
        host = hosts[index % len(hosts)]
        if host == state.myhost:
            try:
                task = proc.spawn(list(argv))
                placed.append({"host": host, "pid": task.pid})
            except NoSuchProgram:
                placed.append({"host": host, "pid": None})
            continue
        waiter = proc.env.event()
        state.spawn_waiters[host] = waiter
        try:
            state.hosts[host].send({"type": "spawn", "argv": list(argv)})
        except ConnectionClosed:
            state.spawn_waiters.pop(host, None)
            placed.append({"host": host, "pid": None})
            continue
        outcome = yield proc.env.any_of([waiter, proc.env.timeout(5.0)])
        if waiter in outcome:
            placed.append({"host": host, "pid": waiter.value})
        else:
            state.spawn_waiters.pop(host, None)
            placed.append({"host": host, "pid": None})
    return placed


# ---------------------------------------------------------------------------
# slave
# ---------------------------------------------------------------------------


def _slave_main(proc, dialect):
    if len(proc.argv) < 4:
        return 1
    master_host, master_port = proc.argv[2], int(proc.argv[3])
    yield proc.sleep(getattr(proc.machine.network.calibration, dialect.slave_startup))
    try:
        conn = yield proc.connect(master_host, master_port)
    except (ConnectionRefused, NoSuchHost):
        return 1
    conn.send({"type": "hello", "host": proc.machine.name})
    try:
        ack = yield conn.recv()
    except ConnectionClosed:
        return 1
    if ack.get("type") != "ack":
        return 1  # rejected: we were not expected
    # Registered; detach so the master's rsh invocation returns.
    proc.daemonize()

    # Fencing (DESIGN.md §16): on a broker-managed machine the slave joins
    # under whatever broker epoch the machine has witnessed.  If the witness
    # rises while we serve — the machine was re-granted under a *newer*
    # broker — this virtual machine's claim on the host is stale: stop
    # accepting work and drop out, exactly as the broker's own daemons fence
    # stale grants.  Zero when no epoch was ever witnessed (no warm standby
    # configured), so the check is inert outside fencing runs.
    session_epoch = witnessed_epoch(proc.machine)

    tasks = []
    try:
        while True:
            msg = yield conn.recv()
            if session_epoch and witnessed_epoch(proc.machine) > session_epoch:
                metrics_of(proc).counter(dialect.fenced).inc()
                break
            kind = msg.get("type")
            if kind == "spawn":
                try:
                    task = proc.spawn(list(msg["argv"]))
                    tasks.append(task)
                    pid = task.pid
                except NoSuchProgram:
                    pid = None
                conn.send({"type": "spawned", "pid": pid})
            elif kind == "halt":
                break
    except ConnectionClosed:
        pass
    for task in tasks:
        if task.is_alive:
            task.kill_tree(SIGKILL, sender=proc)
    conn.close()
    return 0


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------


def boot(proc, dialect: Dialect):
    """Start the master unless one is advertised or booting, then dial it.

    The lock file closes the window in which two concurrent clients would
    both boot a master.  Yield-from it in a program body; it returns the
    connection or raises the dialect's error.
    """
    if not proc.file_exists(dialect.advert) and not proc.file_exists(dialect.lock):
        proc.write_file(dialect.lock, "starting\n")
        proc.spawn([dialect.daemon])
    return (yield from connect(proc, dialect))


def connect(proc, dialect: Dialect):
    """Dial the advertised master (waiting briefly for it to boot).

    Returns the client connection; raises the dialect's error if no
    advertisement appears.
    """
    conn = yield from connect_advertised(proc, dialect.advert)
    if conn is None:
        raise dialect.error(
            f"no {dialect.daemon} running (missing {dialect.advert})"
        )
    return conn


def command(conn, dialect: Dialect, cmd: str, ctx=None, **args):
    """Send the master one command and return its reply.

    ``ctx`` is an optional span context (see :mod:`repro.obs.spans`) that
    rides the command, so the master's per-host add spans stay in the
    caller's trace.  Raises the dialect's error on connection loss.
    """
    message = {"type": "command", "cmd": cmd, **args}
    if ctx:
        message["trace"] = dict(ctx)
    conn.send(message)
    try:
        reply = yield conn.recv()
    except ConnectionClosed:
        raise dialect.error(f"{dialect.daemon} connection lost") from None
    if reply.get("type") != "reply":
        raise dialect.error(f"unexpected reply {reply!r}")
    return reply
