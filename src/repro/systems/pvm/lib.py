"""libpvm — helpers for program bodies that talk to the local master pvmd.

These are generator helpers (``yield from`` them inside a program body); they
model the subset of the PVM library the paper mentions: ``pvm_addhosts()``
(the call that "ultimately results in a rsh command"), plus configuration,
deletion, spawning and halting.
"""

from __future__ import annotations

from repro.os.errors import ConnectionClosed
from repro.os.retry import connect_advertised
from repro.systems.pvm.daemon import PVMD_FILE


class PvmError(Exception):
    """No master daemon, protocol failure, or command error."""


def pvm_connect(proc):
    """Connect to the local master pvmd (waiting briefly for it to boot).

    Returns the console connection; raises :class:`PvmError` if no daemon
    advertisement appears.
    """
    conn = yield from connect_advertised(proc, PVMD_FILE)
    if conn is None:
        raise PvmError("no pvmd running (missing ~/.pvmd)")
    return conn


def _command(conn, payload):
    conn.send({"type": "console", **payload})
    try:
        reply = yield conn.recv()
    except ConnectionClosed:
        raise PvmError("pvmd connection lost") from None
    if reply.get("type") != "console_reply":
        raise PvmError(f"unexpected reply {reply!r}")
    return reply


def pvm_addhosts(conn, hosts, ctx=None):
    """``pvm_addhosts()``: returns {host: "ok"|"failed"|"already"}.

    ``ctx`` is an optional span context (see :mod:`repro.obs.spans`) that
    rides the console command so the daemon's per-host add spans stay in the
    caller's trace.
    """
    payload = {"cmd": "add", "hosts": list(hosts)}
    if ctx:
        payload["trace"] = dict(ctx)
    reply = yield from _command(conn, payload)
    return reply.get("results", {})


def pvm_delhosts(conn, hosts):
    """``pvm_delhosts()``: gracefully remove hosts from the VM."""
    reply = yield from _command(conn, {"cmd": "delete", "hosts": list(hosts)})
    return reply.get("results", {})


def pvm_conf(conn):
    """Current virtual-machine host list."""
    reply = yield from _command(conn, {"cmd": "conf"})
    return reply.get("hosts", [])


def pvm_spawn(conn, argv, count):
    """Start ``count`` task processes round-robin across the VM."""
    reply = yield from _command(
        conn, {"cmd": "spawn", "argv": list(argv), "count": count}
    )
    return reply.get("tasks", [])


def pvm_halt(conn):
    """Stop the whole virtual machine."""
    reply = yield from _command(conn, {"cmd": "halt"})
    return bool(reply.get("halted"))
