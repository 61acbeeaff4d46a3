"""Declarative, seeded fault schedules.

A :class:`FaultPlan` is a plain list of fault records, each stamped with the
simulated instant it fires.  Plans are data, not behaviour: the same plan can
be printed, diffed, stored next to an experiment's results, and — because
:meth:`FaultPlan.generate` draws every time and host from a named stream of
the simulation's :class:`~repro.sim.rng.SimRandom` — the same seed always
yields the same schedule, which is what makes chaos runs byte-reproducible.

Fault taxonomy (see DESIGN.md §9 for the detection/recovery story):

==================  ========================================================
fault               effect
==================  ========================================================
MachineCrash        power loss on one host (+ optional delayed reboot)
DaemonKill          SIGKILL the monitoring daemon on one host
Partition           a group of hosts is cut off from the rest for a window;
                    established connections across the cut are severed
MessageDrop         a lossy window: sends (optionally only of given message
                    types) are dropped with a probability
LatencySpike        all message latencies multiplied for a window
BrokerCrash         SIGKILL the broker process (jobs run on, unmanaged)
BrokerRestart       boot a fresh broker incarnation (epoch + 1); daemons
                    re-register and apps resume their sessions
StandbyCrash        SIGKILL the warm-standby replica (keeper respawns it;
                    it resumes the ship stream from its persisted offset)
ShipLinkPartition   cut only the primary↔standby link for a window: the
                    standby promotes falsely and fencing must resolve the
                    split brain
ShardLinkPartition  cut one inter-shard broker↔broker link for a window: a
                    federated shard keeps serving its own machines but its
                    borrow RPCs to (and loan notices from) one sibling go
                    dark; loans across the cut self-heal via lease expiry
JournalTornWrite    truncate the tail of the broker's on-disk journal (a
                    partially persisted append, as after power loss)
DiskStall           the broker's journal device stops accepting flushes for
                    a window (hung disk / saturated write cache)
==================  ========================================================

``BrokerCrash`` and ``BrokerRestart`` carry a ``shard`` index (default 0):
against a federation they target that shard's broker, against a standalone
broker the index is ignored, so existing plans replay unchanged.

A subsystem's own fault kinds live beside it, each with its injector arm
(an ``inject(injector)`` method): ``StandbyCrash`` and ``ShipLinkPartition``
in :mod:`repro.broker.replica`, ``ShardLinkPartition`` in
:mod:`repro.broker.federation`.  This module and :mod:`repro.faults` export
them with the rest, imported on first use: a fault schedule imports no
broker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


def __getattr__(name: str):
    # The fault kinds that live beside their subsystem, on first use.
    if name in ("StandbyCrash", "ShipLinkPartition"):
        from repro.broker import replica as beside
    elif name == "ShardLinkPartition":
        from repro.broker import federation as beside
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(beside, name)


@dataclass(frozen=True)
class MachineCrash:
    """Power loss on ``host`` at ``at``; reboots after ``reboot_after``
    seconds (None = stays down)."""

    at: float
    host: str
    reboot_after: Optional[float] = None

    kind = "machine_crash"


@dataclass(frozen=True)
class DaemonKill:
    """SIGKILL every ``rbdaemon`` process on ``host`` at ``at``."""

    at: float
    host: str

    kind = "daemon_kill"


@dataclass(frozen=True)
class Partition:
    """Cut ``hosts`` off from every other machine for ``duration`` seconds."""

    at: float
    duration: float
    hosts: Tuple[str, ...]

    kind = "partition"


@dataclass(frozen=True)
class MessageDrop:
    """Drop sends with ``probability`` for ``duration`` seconds.

    ``only_types`` restricts the rule to wire messages whose ``"type"`` key
    is listed (e.g. ``("daemon_report",)`` to starve the broker's heartbeat
    without breaking request/reply protocols); None matches every message.
    """

    at: float
    duration: float
    probability: float = 1.0
    only_types: Optional[Tuple[str, ...]] = None

    kind = "message_drop"


@dataclass(frozen=True)
class LatencySpike:
    """Multiply network latency by ``factor`` for ``duration`` seconds."""

    at: float
    duration: float
    factor: float = 10.0

    kind = "latency_spike"


@dataclass(frozen=True)
class BrokerCrash:
    """SIGKILL the broker process at ``at``.

    Not host-targeted: the service harness knows where its broker lives.
    ``shard`` picks which federated shard's broker to kill (ignored by a
    standalone broker).  Jobs keep running unmanaged until a
    :class:`BrokerRestart` brings a new incarnation up."""

    at: float
    shard: int = 0

    kind = "broker_crash"


@dataclass(frozen=True)
class BrokerRestart:
    """Boot a fresh broker incarnation at ``at`` (epoch + 1, blank state).

    Recovery is driven by the peers: daemons re-register with their lease
    inventories and apps resume their sessions by (jobid, epoch).
    ``shard`` picks which federated shard to restart (ignored by a
    standalone broker)."""

    at: float
    shard: int = 0

    kind = "broker_restart"


@dataclass(frozen=True)
class JournalTornWrite:
    """Drop the last ``drop_chars`` characters of the broker journal's
    newest WAL file at ``at`` — the on-disk shadow of an append that was
    only partially persisted when power went out.  Recovery must treat the
    torn tail as absent, not as corruption of the whole journal.

    No-op on a cluster whose broker runs without a journal."""

    at: float
    drop_chars: int = 24

    kind = "journal_torn_write"


@dataclass(frozen=True)
class DiskStall:
    """The broker's journal device accepts no flushes for ``duration``
    seconds starting at ``at`` (hung disk, saturated write cache).  The
    broker keeps running — appends buffer in memory — but a crash inside
    the window loses everything buffered since the stall began."""

    at: float
    duration: float = 5.0

    kind = "disk_stall"


#: The fault kinds defined here; the subsystems' own (``StandbyCrash``,
#: ``ShipLinkPartition``, ``ShardLinkPartition``) are faults too.
Fault = Union[
    MachineCrash,
    DaemonKill,
    Partition,
    MessageDrop,
    LatencySpike,
    BrokerCrash,
    BrokerRestart,
    JournalTornWrite,
    DiskStall,
]


@dataclass
class FaultPlan:
    """An ordered schedule of faults to inject into one run."""

    faults: List[Fault] = field(default_factory=list)

    def add(self, fault: Fault) -> "FaultPlan":
        """Append ``fault``; returns self for chaining."""
        self.faults.append(fault)
        return self

    def sorted(self) -> List[Fault]:
        """Faults in firing order (stable for equal times)."""
        return sorted(self.faults, key=lambda f: f.at)

    def count(self, kind: str) -> int:
        """Number of scheduled faults of one kind."""
        return sum(1 for f in self.faults if f.kind == kind)

    def summary(self) -> str:
        """One line per fault, in firing order."""
        lines = []
        for fault in self.sorted():
            desc = ", ".join(
                f"{key}={value!r}"
                for key, value in vars(fault).items()
                if key != "at"
            )
            lines.append(f"t={fault.at:8.3f}  {fault.kind}  {desc}")
        return "\n".join(lines)

    @classmethod
    def generate(
        cls,
        rng,
        hosts,
        start: float = 10.0,
        window: float = 60.0,
        crashes: int = 3,
        daemon_kills: int = 1,
        partitions: int = 1,
        drop_windows: int = 1,
        latency_spikes: int = 1,
        broker_crashes: int = 0,
        broker_restart_after: float = 4.0,
        torn_writes: int = 0,
        disk_stalls: int = 0,
        broker_crash_shard: int = 0,
        shard_link_partitions: int = 0,
    ) -> "FaultPlan":
        """Draw a random plan over ``hosts`` from ``rng`` (a numpy Generator,
        typically ``env.rng.stream("faults.plan")`` so the schedule is a pure
        function of the run seed).

        Fault times are uniform over ``[start, start + window)``; crash and
        kill victims are uniform over ``hosts``; each partition cuts off a
        random third of ``hosts`` (at least one).  Each broker crash is
        paired with a restart ``broker_restart_after`` seconds later (the
        broker-draw block comes last so plans with ``broker_crashes=0``
        reproduce pre-broker-fault schedules byte-for-byte).  Durations and
        magnitudes are fixed.  Standby faults are never drawn: ``run_chaos``
        places them by hand with :meth:`add`, timed against each other.
        """
        hosts = list(hosts)
        if not hosts:
            raise ValueError("generate needs at least one host")
        plan = cls()

        def when() -> float:
            return float(rng.uniform(start, start + window))

        def victim() -> str:
            return hosts[int(rng.integers(0, len(hosts)))]

        for _ in range(crashes):
            plan.add(MachineCrash(at=when(), host=victim(), reboot_after=8.0))
        for _ in range(daemon_kills):
            plan.add(DaemonKill(at=when(), host=victim()))
        for _ in range(partitions):
            size = max(1, len(hosts) // 3)
            picked = [hosts[i] for i in rng.permutation(len(hosts))[:size]]
            plan.add(
                Partition(at=when(), duration=12.0, hosts=tuple(sorted(picked)))
            )
        for _ in range(drop_windows):
            plan.add(
                MessageDrop(
                    at=when(),
                    duration=10.0,
                    probability=0.7,
                    only_types=("daemon_report",),
                )
            )
        for _ in range(latency_spikes):
            plan.add(LatencySpike(at=when(), duration=8.0, factor=25.0))
        # Broker faults draw last: adding them must not reshuffle the draws
        # (and so the schedule) of every other fault kind under a fixed seed.
        crash_times = []
        for _ in range(broker_crashes):
            crash_at = when()
            crash_times.append(crash_at)
            plan.add(BrokerCrash(at=crash_at, shard=broker_crash_shard))
            plan.add(
                BrokerRestart(
                    at=crash_at + broker_restart_after, shard=broker_crash_shard
                )
            )
        # Journal faults draw after the broker block for the same reason.
        # A torn write pairs with a broker crash when one is scheduled (the
        # tear fires at the same instant; sorted() is stable, so the crash —
        # added first — injects first and the tear truncates what the dead
        # broker had persisted), otherwise it draws its own time.
        for i in range(torn_writes):
            tear_at = crash_times[i] if i < len(crash_times) else when()
            plan.add(
                JournalTornWrite(
                    at=tear_at, drop_chars=int(rng.integers(8, 64))
                )
            )
        for _ in range(disk_stalls):
            plan.add(DiskStall(at=when(), duration=6.0))
        # Federation faults draw last of all (the same stability rule again:
        # zero-count plans reproduce pre-federation schedules byte-for-byte).
        if shard_link_partitions:
            from repro.broker.federation import ShardLinkPartition
        for _ in range(shard_link_partitions):
            plan.add(ShardLinkPartition(at=when(), duration=12.0, shards=(0, 1)))
        return plan

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        kinds = {}
        for fault in self.faults:
            kinds[fault.kind] = kinds.get(fault.kind, 0) + 1
        inner = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        return f"<FaultPlan {len(self.faults)} faults: {inner}>"
