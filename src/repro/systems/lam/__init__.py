"""LAM/MPI-style runtime.

LAM 6 boots a daemon (``lamd``) on every node of the "LAM universe" and runs
MPI programs over them.  Like PVM it refuses daemons from machines it did not
start itself, so it needs ResourceBroker's external-module path; unlike PVM
it is driven by separate command-line tools rather than an interactive
console:

* ``lamboot [host...]`` — start the origin lamd (advertised in ``~/.lamd``)
  and boot remote lamds on the listed hosts via rsh;
* ``lamgrow <host>`` / ``lamshrink <host>`` — grow/shrink the running
  universe (the paper's required condition 3: a command-line interface for
  users to grow the pool, tolerant of failed attempts);
* ``lamhalt`` — tear the universe down;
* ``lamnodes`` — list it;
* ``lam`` — attach to the universe until it halts (our stand-in for a
  long-running MPI application; keeps a broker-submitted job alive).

Per-host startup is deliberately heavier than PVM's (paper Table 3: ~1.4 s
vs ~1.2 s of per-host ``anylinux`` overhead).

The daemons, their handshake and the client protocol are
:mod:`repro.systems.vmd`, shared with PVM.  What stays LAM's own is the
``lamd`` dialect (:data:`repro.systems.lam.daemon.LAM`: argv, home files,
the heavier slave startup, span, fencing counter, ``LamError``), the tools
with their startup cost and exit codes, and the module scripts.
"""

from repro.systems.lam.daemon import lamd_main
from repro.systems.lam.tools import (
    lam_attach_main,
    lamboot_main,
    lamgrow_main,
    lamhalt_main,
    lamnodes_main,
    lamshrink_main,
)
from repro.systems.lam.modules import (
    lam_grow_module_main,
    lam_halt_module_main,
    lam_shrink_module_main,
)

__all__ = [
    "install_lam",
    "lam_attach_main",
    "lamboot_main",
    "lamd_main",
    "lamgrow_main",
    "lamhalt_main",
    "lamnodes_main",
    "lamshrink_main",
    "lam_grow_module_main",
    "lam_halt_module_main",
    "lam_shrink_module_main",
]


def install_lam(directory) -> None:
    """Register every LAM program (daemon, tools, broker modules)."""
    directory.register("lamd", lamd_main)
    directory.register("lamboot", lamboot_main)
    directory.register("lamgrow", lamgrow_main)
    directory.register("lamshrink", lamshrink_main)
    directory.register("lamhalt", lamhalt_main)
    directory.register("lamnodes", lamnodes_main)
    directory.register("lam", lam_attach_main)
    directory.register("lam_grow", lam_grow_module_main)
    directory.register("lam_shrink", lam_shrink_module_main)
    directory.register("lam_halt", lam_halt_module_main)
