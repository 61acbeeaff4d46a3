"""The pluggable network-fault model consulted by :mod:`repro.cluster.network`.

One :class:`NetworkFaults` instance attaches to a :class:`Network` (its
``faults`` attribute) and answers three questions on every send/connect:

* :meth:`partitioned` — are these two hosts on opposite sides of an active
  partition?  (Checked on both ``send`` and ``connect``.)
* :meth:`should_drop` — does an active lossy window eat this message?
  Probabilistic drops draw from the simulation RNG stream ``"faults.net"``,
  so a run's losses are a pure function of its seed.
* :meth:`latency` — the effective latency given any active spike.

Rules are windows in simulated time: each carries an expiry and is matched
against ``env.now``, so nothing needs to "turn faults off" — expired rules
are simply inert (and pruned lazily).  Severing established connections at
partition onset is the injector's job (:meth:`Network.sever`), not this
model's: this model only shapes traffic that is still flowing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.network import Network


@dataclass
class _PartitionRule:
    hosts: FrozenSet[str]
    until: float

    def cuts(self, a: Optional[str], b: Optional[str]) -> bool:
        """True iff ``a`` and ``b`` are on opposite sides of the cut."""
        return (a in self.hosts) != (b in self.hosts)


@dataclass
class _LinkRule:
    """Blocks exactly one host pair (a ship-link partition) — unlike
    :class:`_PartitionRule`, traffic to and from every other host flows."""

    pair: FrozenSet[str]
    until: float

    def cuts(self, a: Optional[str], b: Optional[str]) -> bool:
        return a != b and a in self.pair and b in self.pair


@dataclass
class _DropRule:
    until: float
    probability: float
    only_types: Optional[Tuple[str, ...]]

    def matches(self, message: object) -> bool:
        if self.only_types is None:
            return True
        mtype = message.get("type") if isinstance(message, dict) else None
        return mtype in self.only_types


@dataclass
class _SpikeRule:
    until: float
    factor: float


class NetworkFaults:
    """Active fault rules for one network (see module docstring)."""

    def __init__(self, network: "Network") -> None:
        self.env = network.env
        self._rng = self.env.rng.stream("faults.net")
        self._partitions: List[_PartitionRule] = []
        self._links: List[_LinkRule] = []
        self._drops: List[_DropRule] = []
        self._spikes: List[_SpikeRule] = []

    # -- installing rules --------------------------------------------------

    def add_partition(self, hosts, duration: float) -> _PartitionRule:
        """Cut ``hosts`` off from all other machines until now+``duration``."""
        rule = _PartitionRule(
            hosts=frozenset(hosts), until=self.env.now + duration
        )
        self._partitions.append(rule)
        return rule

    def add_link_block(self, a: str, b: str, duration: float) -> _LinkRule:
        """Cut just the ``a``↔``b`` link until now+``duration`` (every other
        path stays up — the ship-link split-brain scenario)."""
        rule = _LinkRule(pair=frozenset((a, b)), until=self.env.now + duration)
        self._links.append(rule)
        return rule

    def add_drop_rule(
        self,
        duration: float,
        probability: float = 1.0,
        only_types: Optional[Tuple[str, ...]] = None,
    ) -> _DropRule:
        """Drop matching sends with ``probability`` until now+``duration``."""
        rule = _DropRule(
            until=self.env.now + duration,
            probability=probability,
            only_types=tuple(only_types) if only_types is not None else None,
        )
        self._drops.append(rule)
        return rule

    def add_latency_spike(self, duration: float, factor: float) -> _SpikeRule:
        """Multiply latency by ``factor`` until now+``duration``."""
        rule = _SpikeRule(until=self.env.now + duration, factor=factor)
        self._spikes.append(rule)
        return rule

    # -- queries (hot path: called on every send) --------------------------

    def partitioned(self, a: Optional[str], b: Optional[str]) -> bool:
        """True iff an active partition or link block separates ``a`` and
        ``b``."""
        if not self._partitions and not self._links:
            return False
        now = self.env.now
        self._partitions = [p for p in self._partitions if p.until > now]
        if any(p.cuts(a, b) for p in self._partitions):
            return True
        self._links = [r for r in self._links if r.until > now]
        return any(r.cuts(a, b) for r in self._links)

    def should_drop(
        self, src: Optional[str], dst: Optional[str], message: object
    ) -> bool:
        """True iff an active lossy window eats this message.

        Draws from the ``"faults.net"`` stream only for rules that match the
        window and message type, so unrelated traffic does not perturb the
        stream (keeping drop decisions stable as protocols evolve).
        """
        if not self._drops:
            return False
        now = self.env.now
        self._drops = [d for d in self._drops if d.until > now]
        for rule in self._drops:
            if rule.matches(message):
                if rule.probability >= 1.0:
                    return True
                if float(self._rng.uniform(0.0, 1.0)) < rule.probability:
                    return True
        return False

    def latency(self, base: float) -> float:
        """Effective latency for one message (spikes compound)."""
        if not self._spikes:
            return base
        now = self.env.now
        self._spikes = [s for s in self._spikes if s.until > now]
        for rule in self._spikes:
            base *= rule.factor
        return base

    def __repr__(self) -> str:
        return (
            f"<NetworkFaults partitions={len(self._partitions)} "
            f"links={len(self._links)} "
            f"drops={len(self._drops)} spikes={len(self._spikes)}>"
        )


def install(network: "Network") -> NetworkFaults:
    """Attach a fault model to ``network`` (idempotent) and return it."""
    if network.faults is None:
        network.faults = NetworkFaults(network)
    return network.faults
