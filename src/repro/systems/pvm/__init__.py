"""PVM-style parallel virtual machine.

Models the PVM 3 behaviours the paper's mechanisms interact with:

* a **master pvmd** started on the user's machine (by the first console),
  advertising itself in ``~/.pvmd``;
* **slave pvmds** started on other machines *via rsh* — the interception
  point — that register back with the master;
* the master **refuses slave daemons from hosts it did not ask for** (the
  property that forces ResourceBroker's external-module protocol, paper
  §5.3);
* a **console** (``pvm``) that executes ``add``/``delete``/``conf``/``spawn``/
  ``halt`` commands from argv or from ``~/.pvmrc`` — which is exactly how the
  five-line ``pvm_grow`` module script drives it (paper Figure 4);
* a task layer (``spawn``) good enough for self-scheduling master/worker
  demo applications.

The daemons, their handshake and the client protocol are
:mod:`repro.systems.vmd`, shared with LAM.  What stays PVM's own is the
``pvmd`` dialect (:data:`repro.systems.pvm.daemon.PVM`: argv, home files,
slave startup, span, fencing counter, :class:`PvmError`), the console and
its ``~/.pvmrc``, the ``pvm_*`` library calls and the module scripts.
"""

from repro.systems.pvm.daemon import PvmError, pvmd_main
from repro.systems.pvm.console import pvm_console_main
from repro.systems.pvm.lib import (
    pvm_addhosts,
    pvm_conf,
    pvm_connect,
    pvm_delhosts,
    pvm_halt,
    pvm_spawn,
)
from repro.systems.pvm.modules import (
    pvm_grow_main,
    pvm_halt_module_main,
    pvm_shrink_main,
)

__all__ = [
    "PvmError",
    "install_pvm",
    "pvm_addhosts",
    "pvm_conf",
    "pvm_connect",
    "pvm_console_main",
    "pvm_delhosts",
    "pvm_grow_main",
    "pvm_halt",
    "pvm_halt_module_main",
    "pvm_shrink_main",
    "pvm_spawn",
    "pvmd_main",
]


def install_pvm(directory) -> None:
    """Register every PVM program (daemon, console, broker modules)."""
    directory.register("pvmd", pvmd_main)
    directory.register("pvm", pvm_console_main)
    directory.register("pvm_grow", pvm_grow_main)
    directory.register("pvm_shrink", pvm_shrink_main)
    directory.register("pvm_halt", pvm_halt_module_main)
