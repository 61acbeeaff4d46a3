"""Federated broker control plane (DESIGN.md §17).

A federation partitions the managed machines across ``N`` broker shards —
contiguous slices of the machine list — and runs one full
:class:`~repro.broker.service.BrokerService` per shard.  Each shard
schedules only its own machines with flat per-shard decision cost; a shard
that cannot satisfy a request *borrows* a machine from a sibling through
the lease-migration protocol in :mod:`repro.broker.core`
(``borrow_request`` / ``borrow_reply`` / ``borrow_release`` /
``borrow_recall``).

Submissions route by **locality**: a job submitted from a machine goes to
the shard that manages that machine (structurally guaranteed — each shard's
program directory shadows ``rsh`` only on its own slice, and apps get their
shard's broker address in the environment).  Symbolic machine names carry a
**hash hint** (``crc32(name) % shards``, computed by rsh' when
``RB_FED_SHARDS`` is set) that seeds the borrow ring, so every shard
forwards a given name toward the same sibling first.

A one-shard federation is the degenerate case the identity property test
pins: every federated behaviour is gated on ``shard.count > 1``, so its
timeline, traces and state fingerprints are byte-identical to a standalone
:class:`BrokerService` on the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.broker.service import BrokerService, JobHandle


@dataclass(frozen=True)
class ShardConfig:
    """One broker's membership card in a federation.

    Immutable and shared by value: every shard's config lists the same
    ``broker_hosts`` (indexed by shard number), so any shard can dial any
    sibling's federation port without a lookup service."""

    #: This shard's index in ``[0, count)``.
    index: int
    #: Total number of shards in the federation.
    count: int
    #: Broker host of every shard, indexed by shard number.
    broker_hosts: Tuple[str, ...] = field(default=())


def shard_partitions(hosts: Sequence[str], shards: int) -> List[List[str]]:
    """Split ``hosts`` into ``shards`` contiguous slices: host ``i`` of
    ``count`` goes to shard ``i * shards // count``."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, not {shards}")
    if shards > len(hosts):
        raise ValueError(
            f"cannot split {len(hosts)} machines into {shards} shards"
        )
    parts: List[List[str]] = [[] for _ in range(shards)]
    count = len(hosts)
    for i, host in enumerate(hosts):
        parts[i * shards // count].append(host)
    return parts


class FederationService:
    """Boot and drive a federation of broker shards on one cluster.

    The harness-side twin of :class:`BrokerService` for multi-shard runs:
    same submission/inspection surface, with routing by home host.  Tests
    and experiments that drive a single service keep working — a
    federation of one shard *is* a single service (``self.services[0]``)
    with nothing federated switched on."""

    def __init__(
        self,
        cluster,
        shards: int,
        policy_factory: Optional[Callable[[], Any]] = None,
        managed_hosts: Optional[Sequence[str]] = None,
        scheduler_mode: Optional[str] = None,
        journal: Optional[bool] = None,
        event_log_cap: Optional[int] = None,
        retain_done_jobs: bool = True,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        hosts = list(
            managed_hosts if managed_hosts is not None else cluster.machines
        )
        self.partitions = shard_partitions(hosts, shards)
        broker_hosts = tuple(part[0] for part in self.partitions)
        #: Shard index for every managed host (locality routing).
        self._shard_of_host: Dict[str, int] = {}
        for index, part in enumerate(self.partitions):
            for host in part:
                self._shard_of_host[host] = index
        #: The per-shard broker services, in shard order.
        self.services: List[BrokerService] = []
        for index, part in enumerate(self.partitions):
            config = ShardConfig(
                index=index, count=shards, broker_hosts=broker_hosts
            )
            self.services.append(
                BrokerService(
                    cluster,
                    policy=policy_factory() if policy_factory else None,
                    managed_hosts=part,
                    broker_host=part[0],
                    scheduler_mode=scheduler_mode,
                    journal=journal,
                    event_log_cap=event_log_cap,
                    retain_done_jobs=retain_done_jobs,
                    shard=config,
                )
            )
        #: Fault injectors find the federation through the cluster handle
        #: (e.g. ``ShardLinkPartition`` resolves shard indexes to broker
        #: hosts here).
        cluster.federation = self

    @property
    def shards(self) -> int:
        """Number of shards in this federation."""
        return len(self.services)

    def shard_of(self, host: str) -> int:
        """The shard index managing ``host`` (KeyError if unmanaged)."""
        return self._shard_of_host[host]

    def service_for(self, host: str) -> BrokerService:
        """The shard service managing ``host``."""
        return self.services[self._shard_of_host[host]]

    def broker_host_of(self, shard: int) -> str:
        """The broker machine of shard ``shard``."""
        return self.services[shard].broker_host

    # -- lifecycle ---------------------------------------------------------

    def wait_ready(self) -> None:
        """Run the simulation until every shard's daemons have reported."""
        for service in self.services:
            service.wait_ready()

    # -- submission (locality routing) -------------------------------------

    def submit(
        self,
        host: str,
        argv: Sequence[str],
        rsl: str = "",
        uid: str = "user",
    ) -> JobHandle:
        """Submit ``argv`` from ``host`` via the shard that manages it."""
        return self.service_for(host).submit(host, argv, rsl=rsl, uid=uid)

    # -- inspection --------------------------------------------------------

    def events_of(self, event: str) -> List[Dict[str, Any]]:
        """All shards' entries of one event kind, merged in time order.

        Ties break by shard index so two same-seed runs always merge
        identically."""
        merged: List[Tuple[float, int, Dict[str, Any]]] = []
        for index, service in enumerate(self.services):
            for entry in service.events_of(event):
                merged.append((float(entry.get("time", 0.0)), index, entry))
        merged.sort(key=lambda item: (item[0], item[1]))
        return [entry for _, _, entry in merged]

    def federation_stats(self) -> List[Dict[str, Any]]:
        """Each live shard's ``stats()`` federation block, in shard order."""
        blocks = []
        for service in self.services:
            if service.control is not None:
                blocks.append(service.control.stats()["federation"])
        return blocks

    def total_jobs_done(self) -> int:
        """Finished jobs across every shard (retained-jobs mode only)."""
        return sum(
            1
            for service in self.services
            for job in service.state.jobs.values()
            if job.done
        )
