"""Chaos experiment — a mixed workload survives a seeded fault schedule.

Not a paper artefact: the paper only ever exercises *voluntary* departure
(owner reclaim).  This experiment is the robustness capstone for the same
claim under involuntary failure — machines crash and reboot, daemons are
killed, the LAN partitions and drops heartbeats, and (with
``broker_crashes``) the broker itself dies and restarts mid-run — and every
job still runs to completion:

* an adaptive Calypso job (eager rescheduling re-executes steps lost with a
  crashed worker);
* several ``retrywork`` sequential jobs (the retry-until-success wrapper
  resubmits bursts whose machine died under them).

The fault schedule is drawn from the simulation RNG stream ``faults.plan``,
so the whole run — faults, detections, recoveries, the exported trace — is a
pure function of the seed; two runs with the same seed are byte-identical.

:data:`SCENARIOS` names the scenarios, and :func:`check_scenario` runs one
seed of one under the invariant oracle (:mod:`repro.broker.invariants`) and
gives its verdict: ``python -m repro chaos`` and the tests judge by it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.results import ExperimentTable
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import BrokerCrash
from repro.obs import HealthMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broker.invariants import Violation

#: Every run's shape: worker machines (the broker host n00 is extra), the
#: sequential jobs beside the adaptive one, the simulated seconds a job has
#: to complete, and the machine crashes and partitions drawn into the plan.
MACHINES = 6
SEQUENTIAL_JOBS = 3
HORIZON = 600.0
CRASHES = 3
PARTITIONS = 1

#: Kernel events after which :func:`check_scenario` calls a run ``stalled``.
#: Over seeds 0-1023 of every scenario the most is 732,262 (``plain`` 481,
#: a lease sweeper re-arming itself in the past: ROADMAP item 1(a)), and a
#: run to the 600 sim-s deadline takes about 150 k (``journal`` 244, 439).
EVENT_BUDGET = 2_000_000

#: The chaos scenarios by name: the :func:`run_chaos` arguments of each.
SCENARIOS: Dict[str, Dict[str, Any]] = {
    "plain": {},
    "restart": {"broker_crashes": 1},
    "journal": {"journal": True, "broker_crashes": 1},
    "standby": {"standby": True},
    "shards": {"shards": 2},
}


def run_chaos(
    seed: int = 1,
    broker_crashes: int = 0,
    journal: bool = False,
    standby: bool = False,
    shards: int = 0,
    trace=None,
) -> ExperimentTable:
    """Run the chaos experiment; see the module docstring.

    With ``broker_crashes`` > 0 the schedule SIGKILLs the broker that many
    times (each followed by a restart), exercising lease re-adoption, daemon
    re-registration and app session resumption.

    ``journal=True`` runs the broker durable (write-ahead journal +
    snapshot recovery) and turns the disk against it too: at least one
    broker crash, a torn tail on the journal at the crash instant, and a
    disk-stall window.  Restarts then recover from snapshot+replay first
    and reconcile against the daemons, instead of rebuilding from
    re-registration alone.

    ``standby=True`` runs the warm-standby failover scenario instead of the
    crash/restart one: an extra (unmanaged) machine hosts an ``rbstandby``
    replica fed by WAL shipping, and the schedule stacks the worst sequence
    the design must survive — a standby kill (keeper respawn + stream
    resume), then a ship-link partition, then a primary SIGKILL *mid-ship*,
    one second into the partition and before the promotion deadline, so
    recovery can only come from promotion (there is no restart).  The table
    grows promotion/fencing rows.

    ``shards >= 2`` runs the federated scenario (DESIGN.md §17): the
    machines partition across that many durable broker shards (the journal
    is forced on so "loan" ops survive restarts), jobs are submitted from
    hosts on different shards so saturation forces cross-shard borrowing,
    and the schedule adds a SIGKILL/restart of shard 1's broker plus a
    :class:`~repro.faults.plan.ShardLinkPartition` between shards 0 and 1.
    Every job must still complete — a loan the partition cuts off
    self-heals through lease expiry, never by the machine being grantable
    on two shards at once.
    """
    fed = shards >= 2
    if fed and standby:
        raise ValueError("the standby and federated scenarios are exclusive")
    if fed:
        # Federated chaos runs durable: loans are journalled ("loan" ops),
        # so a crashed shard recovers its side of every in-flight migration
        # instead of rebuilding from re-registration and dropping it.
        journal = True
    standby_host = f"n{MACHINES + 1:02d}" if standby else None
    with Cluster(
        ClusterSpec.uniform(MACHINES + (2 if standby else 1), seed=seed)
    ) as cluster:
        if fed:
            federation = cluster.start_federation(shards=shards, journal=True)
            services = federation.services
            svc = services[0]
            federation.wait_ready()
            events_of = federation.events_of
        else:
            federation = None
            svc = cluster.start_broker(
                # Shipping replicates the WAL, so the standby scenario is durable
                # by construction; the journal *fault* extras stay opt-in.
                journal=journal or standby,
                standby_host=standby_host,
                managed_hosts=(
                    [f"n{i:02d}" for i in range(MACHINES + 1)] if standby else None
                ),
            )
            services = [svc]
            svc.wait_ready()
            events_of = svc.events_of
        monitors = [HealthMonitor(service).start() for service in services]
        broker_hosts = {service.broker_host for service in services}
        worker_hosts = [
            f"n{i:02d}"
            for i in range(1, MACHINES + 1)
            if f"n{i:02d}" not in broker_hosts
        ]

        if journal:
            # A durable broker that never crashes proves nothing: guarantee at
            # least one crash/restart pair, tear the journal tail at the crash
            # instant, and stall the disk for a window.
            broker_crashes = max(broker_crashes, 1)

        # Machine-level faults hit only worker machines: n00 is the submission
        # host and runs the broker.  The broker *process* is fair game, though —
        # broker_crashes kills and restarts it without taking n00 down, which is
        # exactly the failure the lease/resume machinery exists for.
        stream = cluster.env.rng.stream("faults.plan")
        plan = FaultPlan.generate(
            stream,
            worker_hosts,
            start=5.0,
            window=45.0,
            crashes=CRASHES,
            partitions=PARTITIONS,
            # The standby scenario adds its own broker kill below, placed
            # relative to the ship-link partition; a drawn crash (and its
            # paired restart) would race the promotion.
            broker_crashes=0 if standby else broker_crashes,
            torn_writes=1 if journal else 0,
            disk_stalls=1 if journal else 0,
            # Federated runs crash shard 1's broker (keeping the adaptive
            # master's home shard up so recovery is observable) and cut the
            # shard 0 <-> shard 1 control link.  Both parameters draw nothing
            # when zero, so every pre-existing schedule reproduces byte-for-byte.
            broker_crash_shard=1 if fed else 0,
            shard_link_partitions=1 if fed else 0,
        )
        if standby:
            from repro.broker.replica import ShipLinkPartition, StandbyCrash

            # Drawn *after* every generate() draw, so the machine-level
            # schedule is byte-identical to the non-standby run of this seed.
            # The sequence is deliberate: kill the standby first (keeper
            # respawn + stream resume from the persisted offset), then cut the
            # ship link, then SIGKILL the primary one second in — mid-ship,
            # inside the partition, before the promotion deadline — so the
            # promoted replica is provably working from shipped state alone.
            ship_at = float(stream.uniform(20.0, 35.0))
            plan.add(StandbyCrash(at=max(2.0, ship_at - 8.0)))
            plan.add(ShipLinkPartition(at=ship_at, duration=12.0))
            plan.add(BrokerCrash(at=ship_at + 1.0))
        injector = FaultInjector(cluster, plan).start()

        # Submissions route by locality in a federation; spreading the
        # sequential jobs across shard broker hosts loads every shard, so the
        # adaptive job's width pushes shard 0 into borrowing.  Standalone runs
        # have a single broker host and submit everything from n00, as before.
        submit = federation.submit if fed else svc.submit
        submit_hosts = sorted(broker_hosts)
        handles = [
            submit(
                "n00",
                ["calypso", "60", "2.0", "4"],
                rsl="+(adaptive)",
                uid="cal",
            )
        ]
        for i in range(SEQUENTIAL_JOBS):
            handles.append(
                submit(
                    submit_hosts[(i + 1) % len(submit_hosts)],
                    ["retrywork", f"{6 + 3 * i:g}"],
                    uid=f"seq{i}",
                )
            )

        deadline = cluster.now + HORIZON
        while cluster.now < deadline:
            # A process that died of an exception fails the run below, whatever
            # follows it: stop waiting for jobs it may have stranded.
            if cluster.network.crashed or all(h.terminated.triggered for h in handles):
                break
            cluster.env.run(until=min(cluster.now + 1.0, deadline))
        finished_at = cluster.now
        # Settle drain: give the lease sweeper time to expire anything a dead
        # app or lost message stranded, so "machines allocated at end" really
        # measures leaked allocations, not in-flight cleanup.
        settle = 2.0 * cluster.network.calibration.lease_ttl
        if cluster.now < deadline:
            cluster.env.run(until=min(cluster.now + settle, deadline))
        cluster.assert_no_crashes()

        if trace is not None:
            trace.add_cluster(cluster, label="chaos")

        completed = sum(1 for h in handles if h.exit_code == 0)
        counters = svc.metrics
        table = ExperimentTable(
            title="Chaos: mixed workload under a seeded fault schedule",
            columns=["Metric", "Value"],
        )
        table.add("seed", seed)
        table.add("worker machines", MACHINES)
        table.add("jobs submitted", len(handles))
        table.add("jobs completed", completed)
        table.add("machine crashes injected", plan.count("machine_crash"))
        table.add("partitions injected", plan.count("partition"))
        table.add("daemon kills injected", plan.count("daemon_kill"))
        table.add("lossy windows injected", plan.count("message_drop"))
        table.add("latency spikes injected", plan.count("latency_spike"))
        table.add("broker crashes injected", plan.count("broker_crash"))
        table.add("broker restarts", counters.counter("broker.restarts").value)
        if fed:
            table.add("broker shards", shards)
            table.add(
                "shard-link partitions injected",
                plan.count("shard_link_partition"),
            )
            table.add(
                "borrow forwards", counters.counter("federation.forwards").value
            )
            table.add(
                "cross-shard grants",
                counters.counter("federation.cross_shard_grants").value,
            )
            table.add(
                "loans out / refusals",
                f"{counters.counter('federation.loans_out').value:g} / "
                f"{counters.counter('federation.loan_refusals').value:g}",
            )
            table.add(
                "loan recalls / returns / reclaims",
                f"{counters.counter('federation.recalls').value:g} / "
                f"{counters.counter('federation.returns').value:g} / "
                f"{counters.counter('federation.loans_reclaimed').value:g}",
            )
        if standby:
            table.add("standby kills injected", plan.count("standby_crash"))
            table.add(
                "ship-link partitions injected", plan.count("ship_link_partition")
            )
            table.add(
                "standby respawns", counters.counter("broker.standby_restarts").value
            )
            table.add(
                "ship frames / snapshots / resends",
                f"{counters.counter('ship.frames').value:g} / "
                f"{counters.counter('ship.snapshots').value:g} / "
                f"{counters.counter('ship.resends').value:g}",
            )
            table.add("promotions", counters.counter("broker.promotions").value)
            table.add("demotions", counters.counter("broker.demotions").value)
        if fed or standby:
            table.add(
                "fencing rejections",
                counters.counter("fencing.rejections").value,
            )
            table.meta["double_grants"] = counters.counter("fencing.double_grants").value
            table.add("double grants (must be 0)", table.meta["double_grants"])
        if journal:
            table.add("journal torn writes injected", plan.count("journal_torn_write"))
            table.add("disk stalls injected", plan.count("disk_stall"))
            table.add(
                "recoveries from journal",
                counters.counter("recovery.from_journal").value,
            )
            table.add(
                "recoveries from re-registration",
                counters.counter("recovery.from_reregistration").value,
            )
            table.add(
                "journal records replayed",
                counters.counter("recovery.replayed_records").value,
            )
            table.add(
                "torn journal tails tolerated",
                counters.counter("recovery.torn_tails").value,
            )
            table.add(
                "recovery conflicts (live inventory won)",
                counters.counter("recovery.conflicts").value,
            )
            table.add(
                "recovery latency (s)",
                round(counters.gauge("recovery.latency_seconds").value, 3),
            )
            table.add(
                "journal compactions",
                sum(
                    service.journal.compactions
                    for service in services
                    if service.journal is not None
                ),
            )
        table.add(
            "daemon re-registrations",
            counters.counter("broker.daemon_reregistrations").value,
        )
        table.add(
            "sessions resumed", counters.counter("sessions.resumed").value
        )
        table.add("leases adopted", counters.counter("leases.adopted").value)
        table.add("leases expired", counters.counter("leases.expired").value)
        table.add(
            "machines declared dead",
            counters.counter("broker.machines_marked_dead").value,
        )
        table.add(
            "machine rejoins", counters.counter("broker.machine_rejoins").value
        )
        table.add(
            "daemon restarts", counters.counter("broker.daemon_restarts").value
        )
        table.add(
            "connections severed",
            counters.counter("net.severed_connections").value,
        )
        table.add("revocations", len(events_of("revoke")))
        table.add("grants", len(events_of("grant")))
        reports = [monitor.report() for monitor in monitors]
        stuck_allocations = sum(r.stuck_allocations for r in reports)
        table.add("machines allocated at end", stuck_allocations)
        table.add("health checks run", sum(r.checks for r in reports))
        table.add(
            "heartbeat-gap events",
            sum(r.heartbeat_gap_events for r in reports),
        )
        table.add(
            "max heartbeat gap (s)",
            round(max(r.max_heartbeat_gap for r in reports), 3),
        )
        table.add(
            "queue high watermark",
            max(r.queue_high_watermark for r in reports),
        )
        table.add("finished at (s)", round(finished_at, 3))
        table.meta["jobs"] = len(handles)
        table.meta["completed"] = completed
        table.meta["stuck_allocations"] = stuck_allocations
        table.meta["plan"] = plan.summary()
        table.meta["faults_injected"] = len(injector.injected)
        table.meta["journal"] = journal
        if fed:
            table.meta["shard_stats"] = federation.federation_stats()
        table.notes.append(
            "every job must complete despite crashes, partitions and lost "
            "heartbeats; same seed => byte-identical trace"
        )
        return table



def check_scenario(
    name: str, seed: int, trace=None
) -> Tuple[Optional[ExperimentTable], Optional[Violation]]:
    """Run seed ``seed`` of scenario ``name`` checked after every event, and
    return its table and its verdict, None when it is green.

    The verdict is the oracle's first violation once the run has settled;
    else ``incomplete`` when a job did not complete.  An exception out of
    :func:`run_chaos` (a simulated process that died of one included) is
    recorded as ``crashed``, and a run past :data:`EVENT_BUDGET` kernel
    events as ``stalled``, each with no table, never raised."""
    # Imported here, so importing the experiments does not import the broker.
    from repro.broker.invariants import Stalled, Violation, checked

    with checked(EVENT_BUDGET) as watch:
        try:
            table = run_chaos(seed, **SCENARIOS[name], trace=trace)
        except Stalled as exc:
            table = None
            rule, detail = "stalled", str(exc)
        except Exception as exc:  # the program's, whatever it is
            table = None
            rule, detail = "crashed", " ".join(f"{type(exc).__name__}: {exc}".split())
    if table is not None:
        verdict, meta = watch.settled(), table.meta
        if verdict is not None or meta["completed"] == meta["jobs"]:
            return table, verdict
        rule, detail = "incomplete", "{completed}/{jobs} jobs completed".format(**meta)
    # A verdict on the run as a whole, stamped at its end on shard 0.
    oracle = watch.oracles[0]
    logged = oracle.services()[0].logged
    return table, Violation(rule, detail, oracle.cluster.now, 0, logged - 1, None)
