"""Executes a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

The injector is a simulation process that walks the plan in firing order and
performs each fault at its scheduled instant:

* ``machine_crash`` — :meth:`Cluster.crash_machine` (kills resident
  processes, refuses the network, optionally reboots later);
* ``daemon_kill`` — SIGKILLs every ``rbdaemon`` on the victim host;
* ``partition`` — installs a partition rule in the network fault model and
  *severs* every established connection across the cut (both ends see EOF,
  so recovery protocols run instead of hanging on messages that can never
  arrive);
* ``message_drop`` / ``latency_spike`` — installs the corresponding windowed
  rule;
* ``broker_crash`` / ``broker_restart`` — SIGKILLs the broker process /
  boots a fresh incarnation via the cluster's :class:`BrokerService`
  (no-ops on a cluster that never started a broker);
* ``journal_torn_write`` / ``disk_stall`` — truncates the tail of the
  broker journal's newest WAL file / freezes journal flushes for a window
  (no-ops when the broker runs without a journal);
* ``standby_crash`` / ``ship_link_partition`` — SIGKILLs the warm-standby
  replica / blocks just the primary↔standby link (the false-promotion
  split-brain scenario); both no-ops without a configured standby;
* ``shard_link_partition`` — blocks just the link between two federated
  shards' brokers (borrow RPCs and loan notices go dark; loans across the
  cut self-heal through lease expiry); a no-op without a federation.

Every injection opens and ends an observability span (``fault.<kind>``) and
bumps ``faults.injected`` plus a per-kind counter, so a chaos run's trace
shows exactly what was done to the cluster and when.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.faults.netfaults import NetworkFaults, install
from repro.faults.plan import FaultPlan
from repro.os.signals import SIGKILL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import Cluster
    from repro.sim.events import Event


class FaultInjector:
    """Drives one fault plan against one cluster (see module docstring)."""

    def __init__(self, cluster: "Cluster", plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.env = cluster.env
        self.network = cluster.network
        self.faults: NetworkFaults = install(self.network)
        self.injected: List[object] = []
        self._proc = None

    def start(self) -> "FaultInjector":
        """Spawn the injection process; returns self."""
        if self._proc is None:
            self._proc = self.env.process(self._run(), name="fault-injector")
        return self

    @property
    def done(self) -> "Event":
        """Event fired once every scheduled fault has been injected (the
        injection process itself — a sim Process is yieldable)."""
        assert self._proc is not None, "start() the injector first"
        return self._proc

    # -- the injection loop --------------------------------------------------

    def _run(self):
        tracer = self.network.tracer
        metrics = self.network.metrics
        for fault in self.plan.sorted():
            if fault.at > self.env.now:
                yield self.env.timeout(fault.at - self.env.now)
            span = tracer.start(
                f"fault.{fault.kind}",
                actor="fault-injector",
                **{k: _jsonable(v) for k, v in vars(fault).items()},
            )
            self._inject(fault)
            metrics.counter("faults.injected").inc()
            metrics.counter(f"faults.{fault.kind}").inc()
            self.injected.append(fault)
            span.end()

    def _inject(self, fault) -> None:
        kind = fault.kind
        if kind == "machine_crash":
            self.cluster.crash_machine(fault.host, reboot_after=fault.reboot_after)
        elif kind == "daemon_kill":
            self._kill_daemons(fault.host)
        elif kind == "partition":
            self.faults.add_partition(fault.hosts, fault.duration)
            self.network.sever(self.faults.partitioned)
        elif kind == "message_drop":
            self.faults.add_drop_rule(
                fault.duration,
                probability=fault.probability,
                only_types=fault.only_types,
            )
        elif kind == "latency_spike":
            self.faults.add_latency_spike(fault.duration, fault.factor)
        elif kind == "broker_crash":
            service = self._broker_service(getattr(fault, "shard", 0))
            if service is not None:
                service.crash_broker()
        elif kind == "broker_restart":
            service = self._broker_service(getattr(fault, "shard", 0))
            if service is not None:
                service.restart_broker()
        elif kind == "standby_crash":
            self._kill_standby()
        elif kind == "ship_link_partition":
            broker = self.cluster.broker
            if broker is not None and broker.standby_host is not None:
                # Cut the link between the two *well-known* addresses, not
                # the current broker host — after a promotion both roles sit
                # on the standby address and the cut is inert.
                a, b = broker.broker_addresses[0], broker.broker_addresses[1]
                self.faults.add_link_block(a, b, fault.duration)
                self.network.sever(self.faults.partitioned)
        elif kind == "shard_link_partition":
            federation = self.cluster.federation
            if federation is not None:
                a, b = fault.shards
                host_a = federation.broker_host_of(a % federation.shards)
                host_b = federation.broker_host_of(b % federation.shards)
                if host_a != host_b:
                    # Cut only the broker↔broker link: every machine keeps
                    # its own shard's daemons and apps; just the borrow/loan
                    # control traffic between these two shards goes dark.
                    self.faults.add_link_block(host_a, host_b, fault.duration)
                    self.network.sever(self.faults.partitioned)
        elif kind == "journal_torn_write":
            broker = self.cluster.broker
            if broker is not None and broker.journal is not None:
                broker.journal.tear(fault.drop_chars)
        elif kind == "disk_stall":
            broker = self.cluster.broker
            if broker is not None and broker.journal is not None:
                broker.journal.stall(fault.duration)
        else:  # pragma: no cover - plan types are closed
            raise ValueError(f"unknown fault kind {kind!r}")

    def _broker_service(self, shard: int):
        """The broker service a shard-indexed fault targets: the federated
        shard when a federation runs, else the standalone broker (ignoring
        the index), else None."""
        federation = self.cluster.federation
        if federation is not None:
            return federation.services[shard % federation.shards]
        return self.cluster.broker

    def _kill_standby(self) -> int:
        broker = self.cluster.broker
        if broker is None or broker.standby_host is None:
            return 0
        machine = self.cluster.machines.get(broker.standby_host)
        if machine is None or not machine.up:
            return 0
        return _kill_all(machine, "rbstandby")

    def _kill_daemons(self, host: str) -> int:
        machine = self.cluster.machines.get(host)
        if machine is None or not machine.up:
            return 0
        return _kill_all(machine, "rbdaemon")

    def __repr__(self) -> str:
        return (
            f"<FaultInjector {len(self.injected)}/{len(self.plan)} injected>"
        )


def _kill_all(machine, program: str) -> int:
    """SIGKILL every live ``program`` process on ``machine``; the count."""
    victims = machine.running(program)
    for proc in victims:
        proc.signal(SIGKILL)
    return len(victims)


def _jsonable(value):
    """Span attributes must survive JSONL export: tuples become lists."""
    if isinstance(value, tuple):
        return list(value)
    return value
