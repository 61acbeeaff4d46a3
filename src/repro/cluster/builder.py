"""Cluster construction: machines, system programs, daemons, users.

:class:`Cluster` is the top-level convenience object used by tests,
examples and experiments: it creates the environment and network, builds the
machines from a :class:`ClusterSpec`, installs the commodity system programs
(rsh/rshd, the workload binaries, the parallel programming systems) on every
machine and boots an ``rshd`` per machine.

The ResourceBroker itself is *optional* — the paper stresses that the service
is unobtrusive ("the use of the resource manager is optional", §2).  A cluster
without a broker behaves exactly like a plain 1990s Unix network; calling
:meth:`Cluster.start_broker` overlays the broker's program directory on each
machine's PATH (the interception mechanism) and boots the broker process and
its per-machine daemons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.calibration import DEFAULT, Calibration
from repro.cluster.network import Network
from repro.cluster.users import OwnerActivity
from repro.obs import MetricsRegistry, Tracer
from repro.os.machine import Machine, MachineKind
from repro.os.process import OSProcess
from repro.os.programs import ProgramDirectory
from repro.rsh.client import install_rsh
from repro.sim.environment import Environment
from repro.workloads.programs import install_workloads


@dataclass
class MachineSpec:
    """Declarative description of one machine."""

    name: str
    arch: str = "i686"
    os_name: str = "linux"
    cpus: int = 1
    speed: float = 1.0
    private_owner: Optional[str] = None  # None => public machine

    @property
    def kind(self) -> MachineKind:
        return (
            MachineKind.PRIVATE
            if self.private_owner is not None
            else MachineKind.PUBLIC
        )


@dataclass
class ClusterSpec:
    """Declarative description of a whole cluster.

    ``bounded`` is the profile of a run left going indefinitely: bounded
    metric series and histogram digests, no span recording, a capped broker
    event log and finished jobs pruned from the broker's tables, so memory
    stays flat however long it runs.  Counters, the simulation and its
    event count are the same either way.
    """

    machines: List[MachineSpec] = field(default_factory=list)
    seed: int = 0
    calibration: Calibration = DEFAULT
    bounded: bool = False

    @classmethod
    def uniform(
        cls,
        count: int,
        prefix: str = "n",
        seed: int = 0,
        calibration: Calibration = DEFAULT,
        bounded: bool = False,
        **machine_kwargs,
    ) -> "ClusterSpec":
        """``count`` identical public machines named n00, n01, ..."""
        machines = [
            MachineSpec(name=f"{prefix}{i:02d}", **machine_kwargs)
            for i in range(count)
        ]
        return cls(
            machines=machines, seed=seed, calibration=calibration, bounded=bounded
        )


class Cluster:
    """A booted simulated network (see module docstring)."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.env = Environment(seed=spec.seed)
        self.network = Network(self.env, calibration=spec.calibration)
        if spec.bounded:
            # Swapped before the first machine joins, so no instrument or
            # span exists yet on the network's exact registry and tracer.
            self.network.metrics = MetricsRegistry(self.env, mode="bounded")
            self.network.tracer = Tracer(self.env, record=False)
        self.calibration = spec.calibration
        self.system_bin = ProgramDirectory("system")
        install_rsh(self.system_bin)
        install_workloads(self.system_bin)
        self._install_parallel_systems()

        self.machines: Dict[str, Machine] = {}
        self.rshds: Dict[str, OSProcess] = {}
        self.owner_activities: Dict[str, OwnerActivity] = {}
        for mspec in spec.machines:
            machine = Machine(
                self.env,
                mspec.name,
                arch=mspec.arch,
                os_name=mspec.os_name,
                cpus=mspec.cpus,
                speed=mspec.speed,
                kind=mspec.kind,
                owner=mspec.private_owner,
            )
            machine.path = [self.system_bin]
            self.network.add_machine(machine)
            self.machines[machine.name] = machine
            self.rshds[machine.name] = OSProcess(
                machine, ["rshd"], uid="root", startup_delay=0.0
            )
        self.broker = None  # set by start_broker()
        self.federation = None  # set by start_federation()
        #: Called first by :meth:`close`, while the run is whole.
        self.close_hooks: List[Callable[[], None]] = []
        self.closed = False

    def _install_parallel_systems(self) -> None:
        # Imported lazily: the systems packages use the OS layer defined
        # alongside this module.
        from repro.systems import install_all_systems

        install_all_systems(self.system_bin)

    # -- convenience ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self.env.now

    def machine(self, name: str) -> Machine:
        """The machine named ``name``."""
        return self.machines[name]

    def run_command(
        self,
        host: str,
        argv: Sequence[str],
        uid: str = "user",
        environ: Optional[Dict[str, str]] = None,
    ) -> OSProcess:
        """Start ``argv`` as a fresh login process of ``uid`` on ``host``.

        This models a user typing the command at a shell prompt; the returned
        process's ``terminated`` event yields the exit code.
        """
        machine = self.machines[host]
        env_vars = {"HOME": f"/home/{uid}"}
        if environ:
            env_vars.update(environ)
        return OSProcess(machine, list(argv), uid=uid, environ=env_vars)

    def crash_machine(
        self, host: str, reboot_after: Optional[float] = 5.0
    ) -> None:
        """Power-cycle ``host``: every process dies instantly; after
        ``reboot_after`` seconds the machine comes back up with a fresh
        rshd (and nothing else — guests must be restarted by their owners,
        the broker's daemon by the broker's keeper loop).  With
        ``reboot_after=None`` the machine stays down until
        :meth:`boot_machine`.  A no-op on a machine that is already down.
        """
        machine = self.machines[host]
        if not machine.up:
            return
        machine.crash()
        if reboot_after is None:
            return

        def reboot():
            yield self.env.timeout(reboot_after)
            self.boot_machine(host)

        self.env.process(reboot(), name=f"reboot-{host}")

    def boot_machine(self, host: str) -> None:
        """Bring a crashed ``host`` back up with a fresh rshd."""
        machine = self.machines[host]
        if machine.up:
            return
        machine.boot()
        self.rshds[host] = OSProcess(
            machine, ["rshd"], uid="root", startup_delay=0.0
        )

    def add_owner_activity(self, host: str, **kwargs) -> OwnerActivity:
        """Attach an owner-activity generator to a private machine."""
        activity = OwnerActivity(self.machines[host], **kwargs)
        self.owner_activities[host] = activity
        return activity

    def start_broker(
        self,
        policy=None,
        managed_hosts=None,
        broker_host=None,
        journal=False,
        standby_host=None,
    ):
        """Boot ResourceBroker over this cluster; see
        :class:`repro.broker.service.BrokerService`.

        ``journal`` turns on the durable write-ahead journal;
        ``standby_host`` places a warm standby there (WAL
        shipping + fenced failover, requires the journal)."""
        from repro.broker.service import BrokerService

        self.broker = BrokerService(
            self,
            policy=policy,
            managed_hosts=managed_hosts,
            broker_host=broker_host,
            journal=journal,
            standby_host=standby_host,
        )
        return self.broker

    def start_federation(self, shards: int, journal=False):
        """Boot a federated broker control plane over this cluster; see
        :class:`repro.broker.federation.FederationService`.

        The machines partition into ``shards`` (two or more) contiguous
        slices, each run by its own broker; shards borrow machines from
        each other through lease migration.  One broker is
        :meth:`start_broker`."""
        from repro.broker.federation import FederationService

        return FederationService(self, shards=shards, journal=journal)

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """End the finished run so that reference counting frees it.

        Runs :attr:`close_hooks`, then closes the environment (every live
        process's generator, every pending event), the brokers, the
        machines and the network, cutting each back-pointer that would
        close a reference cycle.  What a run is read for afterwards stays
        readable: ``env.heap_stats()``, :attr:`now`, the metrics registry,
        the tracer's spans and each service's ``state``.  Idempotent.
        """
        if self.closed:
            return
        self.closed = True
        for hook in self.close_hooks:
            hook()
        self.close_hooks = []
        self.env.close(
            process
            for machine in self.machines.values()
            for proc in machine.procs.values()
            for process in proc.sim_processes()
        )
        if self.federation is not None:
            self.federation.close()
        elif self.broker is not None:
            self.broker.close()
        for machine in self.machines.values():
            machine.close()
        self.network.close()

    def assert_no_crashes(self) -> None:
        """Raise if any simulated process died with an unhandled exception."""
        if self.network.crashed:
            details = "\n".join(
                f"  {p!r}: {p.exception!r}" for p in self.network.crashed
            )
            raise AssertionError(f"crashed processes:\n{details}")

    def __repr__(self) -> str:
        return (
            f"<Cluster {len(self.machines)} machines "
            f"broker={'yes' if self.broker else 'no'} t={self.env.now:.3f}>"
        )
