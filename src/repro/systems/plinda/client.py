"""PLinda client library, bag-of-tasks master and transactional worker."""

from __future__ import annotations

from repro.os.errors import ConnectionClosed, ConnectionRefused, NoSuchHost
from repro.os.retry import connect_advertised
from repro.sim.process import Interrupt
from repro.systems.hostfile import read_hostfile
from repro.systems.plinda.server import PLINDA_FILE


class PlindaError(Exception):
    """Server unavailable or protocol failure."""


def plinda_connect(proc):
    """Connect to the tuple-space server advertised in ``~/.plinda``."""
    conn = yield from connect_advertised(proc, PLINDA_FILE)
    if conn is None:
        raise PlindaError("no plinda_server running")
    return conn


def _call(conn, payload):
    conn.send(payload)
    try:
        reply = yield conn.recv()
    except ConnectionClosed:
        raise PlindaError("server connection lost") from None
    if not reply.get("ok"):
        raise PlindaError(reply.get("error", "operation failed"))
    return reply


def ts_out(conn, tup):
    """Linda ``out``: deposit a tuple."""
    yield from _call(conn, {"op": "out", "tuple": list(tup)})


def ts_in(conn, pattern):
    """Linda ``in``: blocking destructive match."""
    reply = yield from _call(conn, {"op": "in", "pattern": list(pattern)})
    return tuple(reply["tuple"])


def ts_rd(conn, pattern):
    """Linda ``rd``: blocking non-destructive match."""
    reply = yield from _call(conn, {"op": "rd", "pattern": list(pattern)})
    return tuple(reply["tuple"])


def ts_count(conn, pattern):
    """Count currently-matching tuples."""
    reply = yield from _call(conn, {"op": "count", "pattern": list(pattern)})
    return int(reply["count"])


def txn_begin(conn):
    """Open a transaction on this connection."""
    yield from _call(conn, {"op": "txn_begin"})


def txn_commit(conn):
    """Commit the open transaction."""
    yield from _call(conn, {"op": "txn_commit"})


def txn_abort(conn):
    """Abort the open transaction (takes are restored)."""
    yield from _call(conn, {"op": "txn_abort"})


def ts_halt(conn):
    """Stop the tuple-space server."""
    yield from _call(conn, {"op": "halt"})


# ---------------------------------------------------------------------------
# bag-of-tasks master
# ---------------------------------------------------------------------------


def plinda_master_main(proc):
    """``plinda <tasks> <cpu_per_task> <workers>``.

    Resilient to server loss: if the tuple-space server dies mid-run, the
    master restarts it; the new server recovers the committed task/result
    tuples from its checkpoint and the computation continues — the
    *persistent* half of PLinda.
    """
    if len(proc.argv) < 4:
        return 1
    n_tasks = int(proc.argv[1])
    cpu_per_task = float(proc.argv[2])
    target_workers = int(proc.argv[3])
    if n_tasks <= 0 or target_workers <= 0:
        return 1

    proc.spawn(["plinda_server"])
    try:
        conn = yield from plinda_connect(proc)
    except PlindaError:
        return 1

    for index in range(n_tasks):
        yield from ts_out(conn, ("task", index, cpu_per_task))

    done = proc.env.event()
    hosts = read_hostfile(proc)
    for slot in range(target_workers):
        proc.thread(
            _grow_slot(proc, done, hosts[slot % len(hosts)]),
            name=f"plinda-grow{slot}",
        )

    # Collect one result tuple per task (order irrelevant), restarting the
    # server from its checkpoint whenever it goes away.
    collected = 0
    while collected < n_tasks:
        try:
            yield from ts_in(conn, ("result", None))
            collected += 1
        except PlindaError:
            conn.close()
            proc.spawn(["plinda_server"])
            try:
                conn = yield from plinda_connect(proc)
            except PlindaError:
                if not done.triggered:
                    done.succeed()
                return 1
    if not done.triggered:
        done.succeed()
    try:
        yield from ts_halt(conn)
    except PlindaError:
        pass
    conn.close()
    return 0


def _grow_slot(proc, done, target_host):
    """Keep one worker slot filled, re-reading the server advertisement on
    every (re)spawn so workers always target the *current* server."""
    while not done.triggered:
        if proc.file_exists(PLINDA_FILE):
            server_host, server_port = proc.read_file(PLINDA_FILE).split()
            rsh = proc.spawn(
                [
                    "rsh",
                    target_host,
                    "plinda_worker",
                    server_host,
                    server_port,
                ]
            )
            yield proc.wait(rsh)
            if done.triggered:
                return
        yield proc.sleep(0.25)


# ---------------------------------------------------------------------------
# transactional worker
# ---------------------------------------------------------------------------


def plinda_worker_main(proc):
    """``plinda_worker <server_host> <server_port>``.

    Repeatedly: begin transaction, take a task, compute, emit the result,
    commit.  Dying (or being revoked) mid-transaction loses nothing: the
    server aborts the open transaction and the task tuple reappears.
    """
    if len(proc.argv) < 3:
        return 1
    cal = proc.machine.network.calibration
    try:
        yield proc.sleep(cal.plinda_worker_startup)
        conn = yield proc.connect(proc.argv[1], int(proc.argv[2]))
    except (ConnectionRefused, NoSuchHost):
        return 1
    except Interrupt:
        return 0
    try:
        while True:
            yield from txn_begin(conn)
            _tag, index, work = yield from ts_in(conn, ("task", None, None))
            yield proc.compute(float(work), tag="plinda-task")
            yield from ts_out(conn, ("result", index))
            yield from txn_commit(conn)
    except (ConnectionClosed, PlindaError):
        return 0  # server finished or died
    except Interrupt:
        # Revocation: orderly shutdown; the open transaction (if any) is
        # rolled back by the server when our connection drops.
        yield proc.sleep(cal.adaptive_shutdown)
        return 0
