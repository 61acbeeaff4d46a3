"""libpvm — helpers for program bodies that talk to the local master pvmd.

These are generator helpers (``yield from`` them inside a program body); they
model the subset of the PVM library the paper mentions: ``pvm_addhosts()``
(the call that "ultimately results in a rsh command"), plus configuration,
deletion, spawning and halting.  Each is one command of the shared daemon
client (:func:`repro.systems.vmd.command`).
"""

from __future__ import annotations

from repro.systems import vmd
from repro.systems.pvm.daemon import PVM


def pvm_connect(proc):
    """Connect to the local master pvmd (waiting briefly for it to boot).

    Returns the console connection; raises
    :class:`~repro.systems.pvm.daemon.PvmError` if no daemon
    advertisement appears.
    """
    return (yield from vmd.connect(proc, PVM))


def pvm_addhosts(conn, hosts, ctx=None):
    """``pvm_addhosts()``: returns {host: "ok"|"failed"|"already"}.

    ``ctx`` is an optional span context (see :mod:`repro.obs.spans`) that
    rides the console command so the daemon's per-host add spans stay in the
    caller's trace.
    """
    reply = yield from vmd.command(conn, PVM, "add", ctx=ctx, hosts=list(hosts))
    return reply.get("results", {})


def pvm_delhosts(conn, hosts):
    """``pvm_delhosts()``: gracefully remove hosts from the VM."""
    reply = yield from vmd.command(conn, PVM, "delete", hosts=list(hosts))
    return reply.get("results", {})


def pvm_conf(conn):
    """Current virtual-machine host list."""
    reply = yield from vmd.command(conn, PVM, "conf")
    return reply.get("hosts", [])


def pvm_spawn(conn, argv, count):
    """Start ``count`` task processes round-robin across the VM."""
    reply = yield from vmd.command(conn, PVM, "spawn", argv=list(argv), count=count)
    return reply.get("tasks", [])


def pvm_halt(conn):
    """Stop the whole virtual machine."""
    reply = yield from vmd.command(conn, PVM, "halt")
    return bool(reply.get("halted"))
