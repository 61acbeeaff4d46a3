"""``repro.faults`` — deterministic fault injection.

The paper's premise is that adaptive jobs survive machines coming and going;
this package makes the *involuntary* departures representable.  It provides:

* :mod:`repro.faults.plan` — declarative, seeded fault schedules
  (:class:`FaultPlan` and the fault record types);
* :mod:`repro.faults.netfaults` — the pluggable network-fault model the
  simulated LAN consults on every send/connect;
* :mod:`repro.faults.injector` — the simulation process that executes a plan
  against a live cluster, with an observability span and counter per fault.

Because every random choice (plan generation, probabilistic drops) draws
from named :class:`~repro.sim.rng.SimRandom` streams, a chaos run is a pure
function of its seed: same seed, same faults, byte-identical trace.
"""

from repro.faults import plan
from repro.faults.injector import FaultInjector
from repro.faults.netfaults import NetworkFaults, install
from repro.faults.plan import (
    BrokerCrash,
    BrokerRestart,
    DaemonKill,
    DiskStall,
    Fault,
    FaultPlan,
    JournalTornWrite,
    LatencySpike,
    MachineCrash,
    MessageDrop,
    Partition,
)


def __getattr__(name: str):
    # The subsystems' fault kinds, from the broker on first use (plan.py).
    return getattr(plan, name)


__all__ = [
    "BrokerCrash",
    "BrokerRestart",
    "DaemonKill",
    "DiskStall",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "JournalTornWrite",
    "LatencySpike",
    "MachineCrash",
    "MessageDrop",
    "NetworkFaults",
    "Partition",
    "ShardLinkPartition",
    "ShipLinkPartition",
    "StandbyCrash",
    "install",
]
