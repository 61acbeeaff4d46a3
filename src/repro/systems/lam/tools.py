"""LAM command-line tools: lamboot, lamgrow, lamshrink, lamhalt, lamnodes, lam."""

from __future__ import annotations

from repro.os.errors import ConnectionClosed
from repro.os.retry import connect_advertised
from repro.systems.lam.daemon import LAMD_FILE, LAMD_LOCK


class LamError(Exception):
    """No origin daemon or protocol failure."""


def _connect_origin(proc):
    """Connect to the origin lamd advertised in ``~/.lamd``."""
    conn = yield from connect_advertised(proc, LAMD_FILE)
    if conn is None:
        raise LamError("no lamd running (missing ~/.lamd)")
    return conn


def _tool(conn, payload, ctx=None):
    if ctx:
        payload = {**payload, "trace": dict(ctx)}
    conn.send({"type": "lam_tool", **payload})
    try:
        reply = yield conn.recv()
    except ConnectionClosed:
        raise LamError("lamd connection lost") from None
    if reply.get("type") != "lam_reply":
        raise LamError(f"unexpected reply {reply!r}")
    return reply


def _tool_startup(proc):
    """Every LAM tool pays the (heavier-than-PVM) tool startup cost."""
    cal = proc.machine.network.calibration
    yield proc.sleep(cal.lam_console)


def lamboot_main(proc):
    """``lamboot [host...]``: start the origin lamd, boot listed hosts."""
    from repro.obs import context_from_environ

    yield from _tool_startup(proc)
    if not proc.file_exists(LAMD_FILE) and not proc.file_exists(LAMD_LOCK):
        proc.write_file(LAMD_LOCK, "starting\n")
        proc.spawn(["lamd"])
    try:
        conn = yield from _connect_origin(proc)
    except LamError:
        return 1
    status = 0
    ctx = context_from_environ(proc.environ)
    for host in proc.argv[1:]:
        reply = yield from _tool(conn, {"cmd": "grow", "host": host}, ctx=ctx)
        if reply.get("result") == "failed":
            status = 1
    conn.close()
    return status


def lamgrow_main(proc):
    """``lamgrow <host>``: add one node to the running universe."""
    from repro.obs import context_from_environ

    if len(proc.argv) < 2:
        return 1
    yield from _tool_startup(proc)
    try:
        conn = yield from _connect_origin(proc)
        reply = yield from _tool(
            conn,
            {"cmd": "grow", "host": proc.argv[1]},
            ctx=context_from_environ(proc.environ),
        )
    except LamError:
        return 1
    conn.close()
    return 0 if reply.get("result") in ("ok", "already") else 1


def lamshrink_main(proc):
    """``lamshrink <host>``: gracefully remove one node."""
    if len(proc.argv) < 2:
        return 1
    yield from _tool_startup(proc)
    try:
        conn = yield from _connect_origin(proc)
        reply = yield from _tool(conn, {"cmd": "shrink", "host": proc.argv[1]})
    except LamError:
        return 1
    conn.close()
    return 0 if reply.get("result") == "ok" else 1


def lamhalt_main(proc):
    """``lamhalt``: tear the universe down."""
    yield from _tool_startup(proc)
    try:
        conn = yield from _connect_origin(proc)
        yield from _tool(conn, {"cmd": "halt"})
    except LamError:
        return 1
    conn.close()
    return 0


def lamnodes_main(proc):
    """``lamnodes``: exit 0 and report the node list (via exit status only)."""
    yield from _tool_startup(proc)
    try:
        conn = yield from _connect_origin(proc)
        reply = yield from _tool(conn, {"cmd": "nodes"})
    except LamError:
        return 1
    conn.close()
    return 0 if reply.get("nodes") else 1


def lam_attach_main(proc):
    """``lam``: boot (if needed) and stay attached until the universe halts.

    This is the form submitted through the broker — it stands in for a
    long-running MPI application and keeps the job alive.
    """
    yield from _tool_startup(proc)
    if not proc.file_exists(LAMD_FILE) and not proc.file_exists(LAMD_LOCK):
        proc.write_file(LAMD_LOCK, "starting\n")
        proc.spawn(["lamd"])
    try:
        conn = yield from _connect_origin(proc)
    except LamError:
        return 1
    try:
        yield conn.recv()  # blocks until the origin lamd goes away
    except ConnectionClosed:
        pass
    return 0
