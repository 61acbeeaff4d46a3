"""``pvm`` — the PVM console.

Usage patterns (all exercised by the paper):

* ``pvm``                — start (if needed) the master pvmd, then attach and
  stay until the virtual machine halts.  This is the form submitted through
  the broker: ``app --(module="pvm") pvm`` keeps the job alive for the VM's
  lifetime.
* ``pvm add <host>...``  — the user typing ``pvm> add anylinux``.
* ``pvm delete <host>...`` / ``pvm conf`` / ``pvm halt``.
* a ``~/.pvmrc`` file, executed line-by-line at startup — the hook the
  five-line ``pvm_grow`` module script uses (paper Figure 4).
"""

from __future__ import annotations

from repro.os.errors import ConnectionClosed
from repro.systems import vmd
from repro.systems.pvm.daemon import PVM, PvmError
from repro.systems.pvm.lib import (
    pvm_addhosts,
    pvm_conf,
    pvm_delhosts,
    pvm_halt,
    pvm_spawn,
)

PVMRC = "~/.pvmrc"


def _gather_commands(proc):
    """Commands from argv, then from ~/.pvmrc."""
    commands = []
    if len(proc.argv) > 1:
        commands.append(proc.argv[1:])
    if proc.file_exists(PVMRC):
        for line in proc.machine.fs.read_lines(proc.expand(PVMRC)):
            commands.append(line.split())
    return commands


def pvm_console_main(proc):
    """Program body of the ``pvm`` console (see module docstring)."""
    from repro.obs import context_from_environ

    cal = proc.machine.network.calibration
    ctx = context_from_environ(proc.environ)
    yield proc.sleep(cal.pvm_console)

    # Start the master daemon if there is none (paper: the console
    # "in turn starts the master PVM daemon").
    try:
        conn = yield from vmd.boot(proc, PVM)
    except PvmError:
        return 1

    commands = _gather_commands(proc)
    status = 0
    for command in commands:
        verb, args = command[0], command[1:]
        try:
            if verb == "add":
                results = yield from pvm_addhosts(conn, args, ctx=ctx)
                if any(r == "failed" for r in results.values()):
                    status = 1
            elif verb == "delete":
                yield from pvm_delhosts(conn, args)
            elif verb == "conf":
                yield from pvm_conf(conn)
            elif verb == "spawn":
                # spawn <count> <prog> <args...>
                yield from pvm_spawn(conn, args[1:], int(args[0]))
            elif verb == "halt":
                yield from pvm_halt(conn)
                break
            elif verb == "quit":
                break
            else:
                status = 1
        except PvmError:
            return 1

    if commands:
        # Scripted invocation: detach, leaving the daemon running (unless
        # a halt was executed above).
        conn.close()
        return status

    # Interactive/attached form: stay until the virtual machine goes away.
    try:
        yield conn.recv()
    except ConnectionClosed:
        pass
    return 0
