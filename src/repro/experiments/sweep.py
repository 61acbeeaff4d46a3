"""Deterministic (seed x cluster-size x workload) simulation sweeps.

The scale-out harness behind ``python -m repro sweep``: it fans a grid of
independent simulations across ``multiprocessing`` workers, merges the
per-run metrics and trace summaries into one canonical JSON document.

Determinism contract
--------------------
Every cell is a pure function of its parameters ``(workload, machines,
seed, sim_minutes)``: the simulation draws all randomness from the seeded
environment stream, so a cell computes the same result on any worker, in
any order.  The *merged* document contains only simulation-derived facts
(event counts, span counts, metric snapshots) — never wall-clock — and is
serialized canonically (sorted keys, fixed run order), so a serial run and
a ``--workers N`` run of the same grid produce byte-identical output.
Nothing here reads the host clock: wall time is rbbench's
(``benchmarks/rbbench``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Cell key order used everywhere: grid expansion, merge order, reports.
Cell = Tuple[str, int, int]  # (workload, machines, seed)

def _drive_churn(cluster, service, sim_seconds: float) -> None:
    """The churning workload of the scale benchmarks: one greedy master
    expanding into every idle machine, plus a sequential arrival every 30
    simulated seconds forcing preemption and re-expansion."""
    from repro.workloads import install_churn

    install_churn(cluster.system_bin)
    service.submit(
        "n00",
        ["greedy", str(len(cluster.network.machines) - 1)],
        rsl="+(adaptive)",
    )
    cluster.env.run(until=cluster.now + 5.0)

    def arrivals():
        while True:
            yield cluster.env.timeout(30.0)
            service.submit("n00", ["rsh", "anylinux", "compute", "12"], uid="s")

    cluster.env.process(arrivals())
    cluster.env.run(until=cluster.now + sim_seconds)


def _drive_sequential(cluster, service, sim_seconds: float) -> None:
    """Sequential arrivals only: a brokered ``compute`` every 20 seconds."""

    def arrivals():
        while True:
            yield cluster.env.timeout(20.0)
            service.submit("n00", ["rsh", "anylinux", "compute", "8"], uid="s")

    cluster.env.process(arrivals())
    cluster.env.run(until=cluster.now + sim_seconds)


#: Named workloads a sweep can run.  Each driver gets a started cluster and
#: runs it for ``sim_seconds`` of simulated time.
WORKLOADS = {
    "churn": _drive_churn,
    "sequential": _drive_sequential,
}


def schedule_digest(cluster, service=None) -> str:
    """sha256 of what a run *did*, blind to how many kernel events it took.

    Covers the broker event log (every shard's, for a federation), every
    recorded span (name, trace/span/parent ids, start, end, attrs) and the
    metrics snapshot — grant times, reclaim timelines, report cadence and
    counters all land in one of the three.  Nothing derived from
    ``env.heap_stats()`` enters: two kernels that dispatch a different
    number of events for the same simulated behaviour (event fusion) agree
    on this digest, while any shift in *when* or *in which order* something
    observable happened changes it.  ``service`` defaults to whatever broker
    or federation the cluster booted; a broker-less cluster hashes its spans
    and metrics alone.
    """
    if cluster.federation is not None:
        services = list(cluster.federation.services)
    else:
        service = service if service is not None else cluster.broker
        services = [] if service is None else [service]
    sha = hashlib.sha256()

    def feed(record: Any) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        sha.update(line.encode() + b"\n")

    for index, shard in enumerate(services):
        for entry in shard.events:
            feed(["event", index, entry])
    for span in cluster.network.tracer.spans:
        feed(
            [
                "span",
                span.name,
                span.trace_id,
                span.span_id,
                span.parent_id,
                span.started_at,
                span.ended_at,
                span._attrs or {},
            ]
        )
    feed(["metrics", cluster.network.metrics.snapshot()])
    return sha.hexdigest()


def run_cell(
    workload: str,
    machines: int,
    seed: int,
    sim_minutes: float,
    bounded: bool = False,
) -> Dict[str, Any]:
    """Run one simulation cell; its ``result`` block is a pure function of
    the parameters.

    ``bounded`` runs the cell on a ``ClusterSpec.bounded`` cluster.
    """
    from repro.cluster import Cluster, ClusterSpec

    driver = WORKLOADS[workload]
    spec = ClusterSpec.uniform(machines, seed=seed, bounded=bounded)
    with Cluster(spec) as cluster:
        service = cluster.start_broker()
        service.wait_ready()
        sim_start = cluster.now
        driver(cluster, service, sim_minutes * 60.0)
        cluster.assert_no_crashes()
    # The results read the closed cluster (see Cluster.close).

    heap = cluster.env.heap_stats()
    tracer = cluster.network.tracer
    metrics = cluster.network.metrics.snapshot()

    def count(name: str) -> int:
        # Counters, not events_of(): a bounded cluster caps the event log.
        return int(metrics.get(name, {}).get("value", 0))

    span_names: Dict[str, int] = {}
    for span in tracer.spans:
        span_names[span.name] = span_names.get(span.name, 0) + 1
    result = {
        "sim_seconds": round(cluster.now - sim_start, 6),
        "heap": heap,
        "spans": len(tracer.spans),
        "span_names": span_names,
        "grants": count("broker.grants"),
        "revokes": count("broker.revokes"),
        "metrics": metrics,
        # The registry's self-metering: updates and retained series points.
        "obs": cluster.network.metrics.self_stats(),
        # Broker control-plane cost: machine records examined by eligibility
        # scans.  Deterministic, but a count of work rather than of
        # decisions: a scheduler change that keeps every decision may move
        # it.
        "broker": {"machines_scanned": service.state.machines_scanned},
        # Behaviour only, no kernel event counts: equal across event-fusing
        # kernel changes, where "heap" above legitimately moves.
        "schedule_digest": schedule_digest(cluster, service),
    }
    return {"workload": workload, "machines": machines, "seed": seed, "result": result}


def _run_cell_packed(packed: Tuple) -> Dict[str, Any]:
    """Top-level shim so cells pickle across multiprocessing workers."""
    return run_cell(*packed)


def expand_grid(
    workloads: Sequence[str], sizes: Sequence[int], seeds: Sequence[int]
) -> List[Cell]:
    """The sweep grid in canonical (workload, machines, seed) order."""
    return [
        (w, n, s)
        for w in sorted(workloads)
        for n in sorted(sizes)
        for s in sorted(seeds)
    ]


def run_sweep(
    workloads: Sequence[str] = ("churn",),
    sizes: Sequence[int] = (8, 16, 32),
    seeds: Sequence[int] = (1,),
    sim_minutes: float = 2.0,
    workers: int = 1,
) -> List[Dict[str, Any]]:
    """Run the full grid, optionally fanning cells across worker processes.

    Cell results come back in canonical grid order regardless of worker
    count or completion order (``Pool.map`` preserves input order), which
    is half of the determinism contract; the other half is that cells are
    pure functions of their parameters.
    """
    for workload in workloads:
        if workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {workload!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
    grid = expand_grid(workloads, sizes, seeds)
    packed = [(w, n, s, sim_minutes) for (w, n, s) in grid]
    if workers <= 1 or len(packed) <= 1:
        return [_run_cell_packed(cell) for cell in packed]
    # Imported here: only this path needs it, and it is a dozen modules.
    from multiprocessing import Pool

    with Pool(processes=min(workers, len(packed))) as pool:
        return pool.map(_run_cell_packed, packed)


def merge_results(
    cells: Iterable[Dict[str, Any]], sim_minutes: float
) -> Dict[str, Any]:
    """Fold cell outputs into the canonical merged document; the digest
    fingerprints it so two runs can be compared at a glance."""
    runs = sorted(cells, key=lambda c: (c["workload"], c["machines"], c["seed"]))
    body = {
        "grid": {
            "workloads": sorted({r["workload"] for r in runs}),
            "machines": sorted({r["machines"] for r in runs}),
            "seeds": sorted({r["seed"] for r in runs}),
            "sim_minutes": sim_minutes,
        },
        "runs": runs,
    }
    digest = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    return {**body, "digest": digest}


def canonical_json(document: Dict[str, Any]) -> str:
    """The byte-stable serialization the determinism contract is stated in."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def format_sweep(cells: Sequence[Dict[str, Any]]) -> str:
    """Human-readable sweep summary (one line per cell)."""
    lines = [
        f"{'workload':<12} {'machines':>8} {'seed':>5} {'events':>9} "
        f"{'spans':>7} {'grants':>7}"
    ]
    for cell in cells:
        result = cell["result"]
        lines.append(
            f"{cell['workload']:<12} {cell['machines']:>8} "
            f"{cell['seed']:>5} {result['heap']['processed']:>9} "
            f"{result['spans']:>7} {result['grants']:>7}"
        )
    return "\n".join(lines)
