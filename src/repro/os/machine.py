"""Simulated machines.

A :class:`Machine` bundles a processor-sharing CPU, a process table, a tiny
filesystem, a listening-port table and the monitorable state the broker's
daemons report: load, number of jobs per user, logged-in users and
keyboard/mouse (console) activity.

Machines are *private* (owned by an individual, who has absolute priority) or
*public* (laboratory machines available to everyone) — the distinction the
paper's default allocation policy is built on (§2).

A machine can also *fail*: :meth:`Machine.crash` models a power loss — every
resident process dies instantly (which closes its sockets, so peers see EOF
after one latency), and the machine refuses connections until
:meth:`Machine.boot` brings it back up.  This is the involuntary-departure
counterpart of the paper's voluntary owner reclaim, and what the broker's
liveness detection exists to notice.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.os.filesystem import Filesystem
from repro.os.programs import ProgramBody, ProgramDirectory, resolve
from repro.sim.pshare import ProcessorSharingQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.network import Network
    from repro.os.process import OSProcess
    from repro.sim.environment import Environment


class MachineKind(enum.Enum):
    """Ownership class used by the default allocation policy."""

    PUBLIC = "public"
    PRIVATE = "private"


class Machine:
    """One simulated host.

    Parameters
    ----------
    env:
        Owning simulation environment.
    name:
        Host name, unique within a network.
    arch, os_name:
        Platform attributes matched by RSL requests such as
        ``(arch="i686linux")``.
    cpus, speed:
        CPU model parameters (see
        :class:`~repro.sim.pshare.ProcessorSharingQueue`).
    kind, owner:
        Ownership class; ``owner`` is the owning username for private
        machines.
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        arch: str = "i686",
        os_name: str = "linux",
        cpus: int = 1,
        speed: float = 1.0,
        kind: MachineKind = MachineKind.PUBLIC,
        owner: Optional[str] = None,
    ) -> None:
        if kind is MachineKind.PRIVATE and owner is None:
            raise ValueError(f"private machine {name!r} needs an owner")
        self.env = env
        self.name = name
        self.arch = arch
        self.os_name = os_name
        self.kind = kind
        self.owner = owner
        self.cpu = ProcessorSharingQueue(env, cpus=cpus, speed=speed)
        self.fs = Filesystem()
        self.path: List[ProgramDirectory] = []
        self.procs: Dict[int, "OSProcess"] = {}
        self._pids = itertools.count(1)
        self.network: Optional["Network"] = None
        #: False while the machine is crashed/powered off; the network
        #: refuses connections to a down machine.
        self.up: bool = True
        #: Bumped on every process-table change (register/unregister).  The
        #: monitoring daemon folds it into its cheap change probe: any
        #: process arrival or exit — including subapp lease changes that
        #: leave counts unchanged — forces a full report instead of a
        #: delta beacon.
        self.proc_table_version: int = 0
        #: Users with a login session on this machine.
        self.logged_in: Set[str] = set()
        #: True while the machine's owner is at the console (keyboard/mouse
        #: events within the activity window) — reported by daemons, consumed
        #: by the private-machine revocation policy.
        self.console_active: bool = False

    # -- platform ----------------------------------------------------------

    @property
    def platform(self) -> str:
        """``arch + os`` string matched against RSL requests."""
        return f"{self.arch}{self.os_name}"

    def resolve_program(self, name: str) -> ProgramBody:
        """PATH lookup (see :func:`repro.os.programs.resolve`)."""
        return resolve(self.path, name)

    # -- process management ---------------------------------------------------

    def next_pid(self) -> int:
        """Allocate the next machine-local pid."""
        return next(self._pids)

    def register_process(self, proc: "OSProcess") -> None:
        """Enter ``proc`` into the process table."""
        self.procs[proc.pid] = proc
        self.proc_table_version += 1

    def unregister_process(self, proc: "OSProcess") -> None:
        """Remove ``proc`` from the process table (idempotent)."""
        if self.procs.pop(proc.pid, None) is not None:
            self.proc_table_version += 1

    def processes_of(self, uid: str) -> List["OSProcess"]:
        """Live processes belonging to ``uid``, in pid order."""
        return [p for pid, p in sorted(self.procs.items()) if p.uid == uid]

    def job_count(self, exclude_uids: Set[str] = frozenset()) -> int:
        """Number of live processes not belonging to ``exclude_uids``."""
        return sum(1 for p in self.procs.values() if p.uid not in exclude_uids)

    # -- failure --------------------------------------------------------------

    def crash(self) -> int:
        """Power loss: kill every resident process, refuse the network.

        Process death closes each victim's listeners and connections, so
        remote peers observe EOF after one network latency — exactly how a
        crashed host surfaces to the rest of a real LAN.  Idempotent while
        down; returns the number of processes killed.
        """
        from repro.os.signals import SIGKILL

        if not self.up:
            return 0
        self.up = False
        self.console_active = False
        self.logged_in.clear()
        killed = 0
        for proc in list(self.procs.values()):
            if proc.is_alive:
                proc.signal(SIGKILL)
                killed += 1
        return killed

    def boot(self) -> None:
        """Bring a crashed machine back up (empty: no processes survive a
        crash; system daemons must be restarted by whoever owns them)."""
        self.up = True

    # -- monitoring snapshot -------------------------------------------------

    def snapshot(self) -> dict:
        """The facts a monitoring daemon reports to the broker (paper §3):
        CPU status, logged-in users, number of running jobs, console status.
        """
        return {
            "host": self.name,
            "platform": self.platform,
            "kind": self.kind.value,
            "owner": self.owner,
            "cpu_load": self.cpu.load,
            "n_processes": len(self.procs),
            "logged_in": sorted(self.logged_in),
            "console_active": self.console_active,
            "time": self.env.now,
        }

    def __repr__(self) -> str:
        return (
            f"<Machine {self.name!r} {self.kind.value} load={self.cpu.load} "
            f"procs={len(self.procs)}>"
        )
