"""The four rbbench workloads, driven through the public API of ``repro``.

Each workload function runs one repetition: it builds everything fresh from
the seed, times the region a user would wait for, checks the outputs, and
returns the simulation-derived facts (exact for a seed) apart from the
host-side measurements.  Why each workload exists is in ``BENCHMARK.json``
and the README.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List

import numpy as np

from repro.cluster import Cluster, ClusterSpec
from repro.experiments import (
    run_chaos,
    run_fig7,
    run_soak,
    run_table1,
    run_table2,
    run_table3,
    run_utilization,
)
from repro.experiments.sweep import WORKLOADS as SWEEP_WORKLOADS
from repro.experiments.sweep import canonical_json

from timing import Stopwatch

#: Per-layer counter <- name in the run's metrics registry.
_REGISTRY_COUNTERS = {
    "broker.daemon.beacons": "rbdaemon.beacons",
    "broker.daemon.full_reports": "rbdaemon.full_reports",
    "broker.daemon.report_bytes": "rbdaemon.report_bytes",
    "broker.core.sched_passes": "broker.sched_passes",
    "broker.core.policy_decisions": "broker.policy_decisions",
    "broker.core.grants": "broker.grants",
    "broker.core.revokes": "broker.revokes",
    "broker.core.sweep_scans": "broker.sweep_scans",
    "broker.journal.records": "journal.records",
    "broker.journal.flushes": "journal.flushes",
    "broker.journal.flushed_bytes": "journal.flushed_bytes",
    "broker.journal.compactions": "journal.compactions",
    "broker.journal.replayed_records": "recovery.replayed_records",
    "broker.replica.ship_frames": "ship.frames",
    "broker.replica.promotions": "broker.promotions",
    "broker.other.cross_shard_grants": "federation.cross_shard_grants",
    "broker.other.loans_out": "federation.loans_out",
    "faults.injected": "faults.injected",
}

#: Simulated-time results; each is measured by one workload and 0 elsewhere.
SIM_TIME_UNITS = {
    "grant_wait_sim_s_p50": "sim_s",
    "grant_wait_sim_s_p99": "sim_s",
    "reclaim_sim_s_p50": "sim_s",
    "rshprime_overhead_sim_s": "sim_s",
    "realloc_sim_s": "sim_s",
    "pvm_grow_overhead_sim_s": "sim_s",
    "lam_grow_overhead_sim_s": "sim_s",
    "fig7_slope_sim_s_per_machine": "sim_s",
    "idle_fraction": "ratio",
}

#: Every exact fact a repetition reports -> its unit, in output order.
FACT_UNITS = {
    "sim.events_processed": "count",
    "sim.heap_pushes": "count",
    "sim.cancelled_skipped": "count",
    "sim.heap_high_water": "count",
    "broker.state.machines_scanned": "count",
    "obs.spans": "count",
    **{
        metric: "bytes" if metric.endswith("bytes") else "count"
        for metric in _REGISTRY_COUNTERS
    },
    **SIM_TIME_UNITS,
}


@dataclass
class Rep:
    """One repetition's outputs."""

    facts: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(FACT_UNITS, 0)
    )
    #: Simulated seconds, summed over the clusters built.
    sim_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: One line per failed operation: what, and why.
    failures: List[str] = field(default_factory=list)
    #: Reasons the outputs are wrong (not merely an operation that failed).
    invalid: List[str] = field(default_factory=list)
    #: Host µs/event of the 64-machine reference cell (``churn-1024`` only).
    reference_us_per_event: float = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def digest(self) -> str:
        """sha256 over everything here that the simulation determined."""
        body = {
            "facts": self.facts,
            "sim_seconds": self.sim_seconds,
            "attempted": self.attempted,
            "failures": self.failures,
        }
        return hashlib.sha256(canonical_json(body).encode()).hexdigest()


@contextmanager
def built_clusters() -> Iterator[List[Cluster]]:
    """Collect every ``Cluster`` constructed inside the block.

    The experiment functions build their clusters internally and return only
    a table, so this is how the harness reaches ``env.heap_stats()`` and the
    metrics registry of each.  The wrapper records a reference and nothing
    else, so the simulation cannot observe it."""
    built: List[Cluster] = []
    original = Cluster.__init__

    def recording_init(self: Cluster, spec: ClusterSpec) -> None:
        original(self, spec)
        built.append(self)

    Cluster.__init__ = recording_init  # type: ignore[method-assign]
    try:
        yield built
    finally:
        Cluster.__init__ = original  # type: ignore[method-assign]


def _fold(rep: Rep, clusters: List[Cluster]) -> None:
    """Add the kernel, registry and broker counters of ``clusters``."""
    facts = rep.facts
    for cluster in clusters:
        heap = cluster.env.heap_stats()
        facts["sim.events_processed"] += heap["processed"]
        facts["sim.heap_pushes"] += heap["pushes"]
        facts["sim.cancelled_skipped"] += heap["skipped_cancelled"]
        facts["sim.heap_high_water"] = max(
            facts["sim.heap_high_water"], heap["heap_high_water"]
        )
        rep.sim_seconds += cluster.now
        snapshot = cluster.network.metrics.snapshot()
        for metric, source in _REGISTRY_COUNTERS.items():
            facts[metric] += snapshot.get(source, {}).get("value", 0)
        facts["obs.spans"] += len(cluster.network.tracer.spans)
        if cluster.federation is not None:
            services = cluster.federation.services
        else:
            services = [cluster.broker] if cluster.broker is not None else []
        facts["broker.state.machines_scanned"] += sum(
            service.state.machines_scanned for service in services
        )


def _measured(rep: Rep, timed: Stopwatch, fn: Callable[..., Any], *args, **kwargs):
    """Call one public experiment function inside the timed region, then
    fold the counters of the clusters it built.  Per call, so that finished
    clusters are released as the function itself would release them.  A
    call that raises still has its counters folded: its events took time."""
    clusters: List[Cluster] = []
    try:
        with built_clusters() as clusters, timed:
            return fn(*args, **kwargs)
    finally:
        _fold(rep, clusters)


def _churn_cell(seed: int, machines: int, sim_minutes: float, setup, timed):
    with setup:
        cluster = Cluster(ClusterSpec.uniform(machines, seed=seed))
        service = cluster.start_broker()
        service.wait_ready()
    with timed:
        SWEEP_WORKLOADS["churn"](cluster, service, sim_minutes * 60.0)
    return cluster, service


def churn(seed: int, smoke: bool, setup: Stopwatch, timed: Stopwatch) -> Rep:
    """One greedy master over every machine, an arrival each 30 sim-s."""
    rep = Rep()
    machines, sim_minutes = (64, 1.0) if smoke else (1024, 3.0)
    cluster, service = _churn_cell(seed, machines, sim_minutes, setup, timed)
    try:
        cluster.assert_no_crashes()
    except AssertionError as exc:
        rep.invalid.append(str(exc))
    _fold(rep, [cluster])
    rep.facts["reclaim_sim_s_p50"] = cluster.network.metrics.histogram(
        "broker.reclaim_seconds"
    ).percentile(0.5)

    # An arrival needs ~13.4 simulated seconds; one older than 20 that has
    # not exited 0 is a failed operation.
    done = {e["jobid"] for e in service.events_of("job_done") if e["code"] == 0}
    submits = service.events_of("submit")
    rep.attempted = len(submits)
    for entry in submits:
        sequential = entry["argv"][0] == "rsh"
        if sequential and entry["jobid"] not in done:
            if entry["time"] + 20.0 <= cluster.now:
                rep.fail(f"job {entry['jobid']} submitted at "
                         f"{entry['time']:.1f} never finished")

    if not smoke:
        # The same cell at 64 machines, for sim.scale_ratio_1024_over_64.
        reference = Stopwatch()
        small, _ = _churn_cell(seed, 64, sim_minutes, Stopwatch(), reference)
        events = small.env.heap_stats()["processed"]
        rep.reference_us_per_event = reference.wall / events * 1e6
    return rep


def soak(seed: int, smoke: bool, setup: Stopwatch, timed: Stopwatch) -> Rep:
    """A Poisson trace through a durable 12-machine broker, two restarts.

    Rates 1.0/2.5 (not the default 0.3/1.5, which never queue) put a backlog
    of 10-30 requests in front of the scheduler at each diurnal peak.  From
    2.75 up the cluster nears saturation and host time depends on the seed
    (sd 6 % at 2.75, +-12 % at 3.0, against a noise floor of 3 %), and the
    driver measures every run on another seed."""
    rep = Rep()
    submissions = 300 if smoke else 6000
    with built_clusters() as clusters, timed:
        report = run_soak(
            seed=seed,
            machines=12,
            submissions=submissions,
            restarts=2,
            base_rate=1.0,
            peak_rate=2.5,
        )
    _fold(rep, clusters)
    wait = clusters[0].network.metrics.histogram("broker.grant_wait")
    rep.facts["grant_wait_sim_s_p50"] = wait.percentile(0.5)
    rep.facts["grant_wait_sim_s_p99"] = wait.percentile(0.99)
    rep.attempted = submissions
    undrained = submissions - report.completed
    for count, what in (
        (report.failed, "submissions exited non-zero"),
        (undrained, "submissions never completed"),
        (report.stuck_allocations, "allocations stuck after settle"),
    ):
        if count:
            rep.failed += count
            rep.failures.append(f"{count} {what}")
    # A submission that exits non-zero (a job the broker crash caught in
    # flight) is a failed operation; one that never ends is a wrong output.
    if undrained:
        rep.invalid.append(
            f"soak not drained: {report.completed}/{submissions} completed"
        )
    return rep


def paper_tables(seed: int, smoke: bool, setup: Stopwatch, timed: Stopwatch) -> Rep:
    """Tables 1-3, Fig. 7 and the five-hour utilization run, back to back.

    The shape checks are the ranges the paper states (the same ones the
    ``benchmarks/bench_table*.py`` gates assert); each is one attempted
    operation."""
    rep = Rep()
    t1 = _measured(rep, timed, run_table1, seed=seed)
    t2 = _measured(rep, timed, run_table2, seed=seed)
    t3 = _measured(rep, timed, run_table3, seed=seed)
    fig7 = _measured(rep, timed, run_fig7, seed=seed)
    util = None if smoke else _measured(rep, timed, run_utilization, seed=seed)

    def check(ok: bool, what: str) -> None:
        rep.attempted += 1
        if not ok:
            rep.fail(what)

    rsh_null = t1.value("rsh n01 null")
    rshp_null = t1.value("rsh' n01 null")
    any_null = t1.value("rsh' anylinux null")
    check(0.2 <= rsh_null <= 0.45, "table1: rsh null outside 0.2..0.45")
    check(0.15 <= rshp_null - rsh_null <= 0.45, "table1: rsh' overhead")
    check(abs(any_null - rshp_null) <= 0.2, "table1: anylinux vs named host")
    for label, null_t in (
        ("rsh n01", rsh_null),
        ("rsh' n01", rshp_null),
        ("rsh' anylinux", any_null),
    ):
        burst = t1.value(f"{label} loop") - null_t
        check(6.0 <= burst <= 7.0, f"table1: {label} loop - null = {burst:.3f}")

    t2_any_null = t2.value("rsh' anylinux null")
    t2_rsh_loop = t2.value("rsh n01 loop")
    t2_any_loop = t2.value("rsh' anylinux loop")
    realloc = t2_any_null - any_null
    check(0.2 <= t2.value("rsh n01 null") <= 0.45, "table2: rsh null")
    check(0.7 <= realloc <= 1.3, f"table2: reallocation {realloc:.3f} s")
    check(t2_any_loop < t2_rsh_loop, "table2: loop crossover")
    check(t2_rsh_loop >= 1.8 * 6.5, "table2: plain rsh shares the CPU")
    check(t2_any_loop <= t2_any_null + 6.7, "table2: brokered loop")

    host = (
        t3.meta["pvm_host_overhead_per_machine"]
        + t3.meta["lam_host_overhead_per_machine"]
    )
    any_pvm = t3.meta["pvm_anylinux_overhead_per_machine"]
    any_lam = t3.meta["lam_anylinux_overhead_per_machine"]
    pvm_rsh = [t3.value("pvm w/ rsh", c) for c in t3.columns[1:]]
    steps = [b - a for a, b in zip(pvm_rsh, pvm_rsh[1:])]
    check(all(0.0 <= o < 0.0003 for o in host), "table3: named-host overhead")
    check(all(0.9 <= o <= 1.5 for o in any_pvm), "table3: pvm anylinux")
    check(all(1.1 <= o <= 1.7 for o in any_lam), "table3: lam anylinux")
    check(all(l > p for l, p in zip(any_lam, any_pvm)), "table3: lam > pvm")
    check(max(steps) - min(steps) < 0.1, "table3: pvm w/ rsh not linear")

    sizes = [float(k) for k in fig7.meta["sizes"]]
    times = [row.values[0] for row in fig7.rows]
    slope = float(np.polyfit(sizes, times, 1)[0])
    r2 = float(np.corrcoef(sizes, times)[0, 1] ** 2)
    check(0.8 <= slope <= 1.2, f"fig7: slope {slope:.3f} s/machine")
    check(r2 > 0.995, f"fig7: R^2 {r2:.4f}")
    check(times == sorted(times), "fig7: not monotone")

    rep.facts.update(
        {
            "rshprime_overhead_sim_s": rshp_null - rsh_null,
            "realloc_sim_s": realloc,
            "pvm_grow_overhead_sim_s": sum(any_pvm) / len(any_pvm),
            "lam_grow_overhead_sim_s": sum(any_lam) / len(any_lam),
            "fig7_slope_sim_s_per_machine": slope,
        }
    )
    if util is not None:
        idleness = util.meta["idleness"]
        by_host = util.meta["utilization_by_host"]
        check(0.0 <= idleness < 0.01, f"utilization: idleness {idleness:.4%}")
        check(all(b > 0.97 for b in by_host.values()), "utilization: a host")
        check(util.value("sequential jobs submitted") == 179, "utilization: jobs")
        rep.facts["idle_fraction"] = idleness
    return rep


#: The durable-restart, warm-standby and federated scenarios of run_chaos.
_CHAOS_SCENARIOS = (
    ("journal", {"journal": True, "broker_crashes": 1}),
    ("standby", {"standby": True}),
    ("shards", {"shards": 2}),
)


#: Scenario seeds below 1024 on which one of the three scenarios fails at the
#: commit that added rbbench: a machine granted twice (standby 13, shards
#: 12), an allocation stranded (journal 25, shards 6, standby 2), a job lost
#: and the scenario run to its 600 sim-s deadline (journal: 244, 439, 845,
#: 890, 1019; 150 k events where a scenario has 4 k), or ``RuntimeError: a
#: process cannot abort itself`` out of ``run_chaos`` (shards: 376, 418).
#: The driver wants workloads on which no operation fails, and one deadline
#: run is a quarter of a repetition's time and +20 MiB, so these are not
#: drawn.  The README lists each with its reason.
_CHAOS_FAILING_SEEDS = frozenset((
    3, 7, 19, 28, 35, 47, 106, 110, 119, 126, 139, 143, 168, 191, 193, 244,
    245, 273, 274, 278, 279, 328, 337, 376, 389, 390, 405, 418, 423, 437,
    439, 521, 580, 594, 607, 611, 612, 617, 633, 641, 653, 677, 697, 698,
    700, 728, 729, 752, 830, 845, 855, 890, 903, 913, 915, 948, 961, 988,
    1019, 1023,
))
_CHAOS_POOL = [s for s in range(1024) if s not in _CHAOS_FAILING_SEEDS]


def chaos_sweep(seed: int, smoke: bool, setup: Stopwatch, timed: Stopwatch) -> Rep:
    """Three fault scenarios for each of 40 scenario seeds that ``seed``
    draws from the 964 on which all three pass at this commit.

    A scenario that loses a job, strands an allocation, grants a machine
    twice or dies of an exception inside the simulation is a failed
    operation all the same: counted and listed, never raised."""
    rep = Rep()
    drawn = random.Random(seed).sample(_CHAOS_POOL, 3 if smoke else 40)
    for scenario_seed in drawn:
        for name, kwargs in _CHAOS_SCENARIOS:
            rep.attempted += 1
            reasons = []
            try:
                meta = _measured(rep, timed, run_chaos, scenario_seed, **kwargs).meta
            except Exception as exc:  # the program's, whatever it is
                reasons.append(f"crashed: {type(exc).__name__}: {exc}")
            else:
                if meta["completed"] < meta["jobs"]:
                    reasons.append(f"completed {meta['completed']}/{meta['jobs']}")
                if meta["stuck_allocations"] > 0:
                    reasons.append(f"stuck_allocations={meta['stuck_allocations']}")
                if meta.get("double_grants", 0) > 0:
                    reasons.append(f"double_grants={meta['double_grants']:g}")
            if reasons:
                rep.fail(f"seed={scenario_seed} scenario={name} "
                         + " ".join(reasons))
    return rep


WorkloadFn = Callable[[int, bool, Stopwatch, Stopwatch], Rep]

#: Workload name (as in BENCHMARK.json) -> its repetition function.
WORKLOADS: Dict[str, WorkloadFn] = {
    "churn-1024": churn,
    "soak-12": soak,
    "paper-tables": paper_tables,
    "chaos-sweep": chaos_sweep,
}
