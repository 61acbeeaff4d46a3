"""LAM command-line tools: lamboot, lamgrow, lamshrink, lamhalt, lamnodes, lam.

Each pays LAM's (heavier-than-PVM) tool startup, dials the origin lamd and
sends it commands through the shared daemon client (:mod:`repro.systems.vmd`).
"""

from __future__ import annotations

from repro.obs import context_from_environ
from repro.os.errors import ConnectionClosed
from repro.systems import vmd
from repro.systems.lam.daemon import LAM, LamError


def _tool_startup(proc):
    """Every LAM tool pays the (heavier-than-PVM) tool startup cost."""
    cal = proc.machine.network.calibration
    yield proc.sleep(cal.lam_console)


def _one_command(proc, cmd, **args):
    """Tool startup, dial the origin, send one command: its reply, or
    ``None`` when no origin answers."""
    yield from _tool_startup(proc)
    try:
        conn = yield from vmd.connect(proc, LAM)
        reply = yield from vmd.command(conn, LAM, cmd, **args)
    except LamError:
        return None
    conn.close()
    return reply


def lamboot_main(proc):
    """``lamboot [host...]``: start the origin lamd, boot listed hosts."""
    yield from _tool_startup(proc)
    ctx = context_from_environ(proc.environ)
    status = 0
    try:
        conn = yield from vmd.boot(proc, LAM)
        for host in proc.argv[1:]:
            reply = yield from vmd.command(conn, LAM, "add", ctx=ctx, hosts=[host])
            if reply["results"][host] == "failed":
                status = 1
    except LamError:
        return 1
    conn.close()
    return status


def lamgrow_main(proc):
    """``lamgrow <host>``: add one node to the running universe."""
    if len(proc.argv) < 2:
        return 1
    host = proc.argv[1]
    reply = yield from _one_command(
        proc, "add", ctx=context_from_environ(proc.environ), hosts=[host]
    )
    return 0 if reply and reply["results"][host] in ("ok", "already") else 1


def lamshrink_main(proc):
    """``lamshrink <host>``: gracefully remove one node."""
    if len(proc.argv) < 2:
        return 1
    host = proc.argv[1]
    reply = yield from _one_command(proc, "delete", hosts=[host])
    return 0 if reply and reply["results"][host] == "ok" else 1


def lamhalt_main(proc):
    """``lamhalt``: tear the universe down."""
    reply = yield from _one_command(proc, "halt")
    return 0 if reply else 1


def lamnodes_main(proc):
    """``lamnodes``: exit 0 and report the node list (via exit status only)."""
    reply = yield from _one_command(proc, "conf")
    return 0 if reply and reply["hosts"] else 1


def lam_attach_main(proc):
    """``lam``: boot (if needed) and stay attached until the universe halts.

    This is the form submitted through the broker — it stands in for a
    long-running MPI application and keeps the job alive.
    """
    yield from _tool_startup(proc)
    try:
        conn = yield from vmd.boot(proc, LAM)
    except LamError:
        return 1
    try:
        yield conn.recv()  # blocks until the origin lamd goes away
    except ConnectionClosed:
        pass
    return 0
