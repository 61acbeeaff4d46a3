"""ResourceBroker — the paper's inter-job resource manager.

Layout mirrors the paper's architecture (§3):

* :mod:`repro.broker.core` — the single network-wide **broker process**
  (resource-management layer, upper half): boot and the scheduler, composed
  with :mod:`~repro.broker.leases` (daemons, liveness, leases),
  :mod:`~repro.broker.sessions` (app sessions),
  :mod:`~repro.broker.replica` (WAL shipping, fencing, the warm standby)
  and :mod:`~repro.broker.federation` (shards and the borrow protocol).
* :mod:`repro.broker.daemon` — the per-machine **monitoring daemon**
  (resource-management layer, lower half).
* :mod:`repro.broker.app` — the **app / subapp** processes (application
  layer): one app per submitted job, one subapp per remotely-acquired
  machine.
* :mod:`repro.broker.rshprime` — **rsh'**, the interposed remote shell that
  turns symbolic host names into just-in-time allocation requests.
* :mod:`repro.broker.modules` — the **external module** mechanism
  (``<module>_grow`` / ``_shrink`` / ``_halt`` scripts).
* :mod:`repro.broker.state` — broker-side bookkeeping: the tables of
  machines, jobs, allocations and pending requests, and their indexes;
  :mod:`repro.broker.records` — the records those tables hold.
* :mod:`repro.broker.service` — host-side harness that installs the broker
  onto a :class:`~repro.cluster.builder.Cluster` and offers a typed
  submission API.
* :mod:`repro.broker.journal` — the durable broker's write-ahead journal
  (DESIGN.md §14); :mod:`repro.broker.recovery` — snapshot/replay and the
  one recovery pipeline every restart and promotion runs through.
* :mod:`repro.broker.invariants` — the safety properties, checked from
  outside the simulation.
"""

from repro.broker.journal import BrokerJournal
from repro.broker.records import (
    AllocationState,
    JobRecord,
    MachineRecord,
    PendingRequest,
)
from repro.broker.recovery import RecoveryInfo, state_fingerprint
from repro.broker.service import BrokerService, JobHandle
from repro.broker.state import BrokerState

__all__ = [
    "AllocationState",
    "BrokerJournal",
    "BrokerService",
    "BrokerState",
    "JobHandle",
    "JobRecord",
    "MachineRecord",
    "PendingRequest",
    "RecoveryInfo",
    "state_fingerprint",
]
