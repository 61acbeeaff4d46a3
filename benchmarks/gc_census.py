"""What the host's cyclic collector is made to walk by a churn cell.

Run as a script (``make gc-census``, ``python benchmarks/gc_census.py
--machines 1024``).  Two measurements of the churning scale workload
(``repro.experiments.sweep.WORKLOADS["churn"]``), each on a fresh cluster:

* **Collections** — the cell runs once with the collector on and a
  ``gc.callbacks`` hook counting collections, full (generation-2)
  collections and the seconds spent inside them, next to the cell's wall
  time.  Host-dependent: a measurement, not a gate.
* **Census** — a second cell runs to steady state, then ``gc.collect();
  gc.disable()`` and one more ``--window`` simulated seconds (1.9: just
  under one heartbeat period).  Whatever is then in generation 0 was
  born in the window and is still alive: the tracked objects a parked
  process holds until its next wake-up, which every young collection
  re-walks and never frees.  Counted by type; exact on any hardware.
  Beside it, every live ``Connection`` and ``deque`` of the process at
  that point: what the cluster's sockets keep in queue objects; the
  metrics registry's ``updates`` against its retained ``series_points``:
  how many writes the per-instant series coalesced; and every live
  ``OSProcess`` and ``Store``, counted with the mean bytes each retains:
  its shallow size plus the containers it owns (its instance ``__dict__``
  and each list, set, dict and deque it references directly).

The last line of stdout is one JSON object with both.  Drives only the
public API of ``repro``, so it runs unchanged on any earlier commit
(``PYTHONPATH=<checkout>/src python benchmarks/gc_census.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from collections import Counter, deque
from pathlib import Path
from typing import Any, Dict, List

try:
    import repro  # noqa: F401 - PYTHONPATH decides which checkout is measured
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.sweep import WORKLOADS
from repro.os.process import OSProcess
from repro.sim.stores import Store

#: Simulated seconds a churn cell needs before every machine is granted and
#: the first arrival has been placed: from here on each period looks alike.
STEADY_SIM_S = 40.0


#: What "the containers an object owns" are, for :func:`retained_bytes`.
OWNED_CONTAINERS = (list, set, dict, deque)


def retained_bytes(obj: Any) -> int:
    """Shallow size of ``obj`` plus that of the containers it owns."""
    size = sys.getsizeof(obj)
    values = []
    if hasattr(obj, "__dict__"):
        size += sys.getsizeof(obj.__dict__)
        values.extend(vars(obj).values())
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if not name.startswith("__") and hasattr(obj, name):
                values.append(getattr(obj, name))
    return size + sum(
        sys.getsizeof(value) for value in values
        if isinstance(value, OWNED_CONTAINERS)
    )


def holdings(objects: List[Any]) -> Dict[str, Any]:
    """Count and mean retained bytes of ``objects``."""
    total = sum(retained_bytes(obj) for obj in objects)
    return {
        "count": len(objects),
        "mean_bytes": round(total / len(objects), 1) if objects else 0.0,
    }


def _cell(machines: int, seed: int):
    cluster = Cluster(ClusterSpec.uniform(machines, seed=seed))
    service = cluster.start_broker()
    service.wait_ready()
    return cluster, service


def collections(machines: int, seed: int, sim_minutes: float) -> Dict[str, Any]:
    """Collector activity over one bare churn cell, GC left on."""
    cluster, service = _cell(machines, seed)
    total = full = 0
    seconds = started = 0.0

    def hook(phase: str, info: Dict[str, int]) -> None:
        nonlocal total, full, seconds, started
        if phase == "start":
            started = time.perf_counter()
        else:
            seconds += time.perf_counter() - started
            total += 1
            full += info["generation"] == 2

    gc.collect()
    gc.callbacks.append(hook)
    begin = time.perf_counter()
    try:
        WORKLOADS["churn"](cluster, service, sim_minutes * 60.0)
    finally:
        wall = time.perf_counter() - begin
        gc.callbacks.remove(hook)
    cluster.assert_no_crashes()
    return {
        "sim_minutes": sim_minutes,
        "events_processed": cluster.env.heap_stats()["processed"],
        "wall_s": round(wall, 3),
        "collections": total,
        "full_collections": full,
        "gc_s": round(seconds, 3),
    }


def census(machines: int, seed: int, window: float) -> Dict[str, Any]:
    """Tracked objects born in ``window`` sim-s of steady state, still alive."""
    cluster, service = _cell(machines, seed)
    WORKLOADS["churn"](cluster, service, STEADY_SIM_S)
    gc.collect()
    gc.disable()
    try:
        cluster.env.run(until=cluster.now + window)
        young: List[Any] = gc.get_objects(generation=0)
        by_type = Counter(type(obj).__name__ for obj in young)
        del young
        everything = gc.get_objects()
        live = Counter(type(obj).__name__ for obj in everything)
        processes = holdings([o for o in everything if isinstance(o, OSProcess)])
        stores = holdings([o for o in everything if isinstance(o, Store)])
        del everything
    finally:
        gc.enable()
    total = sum(by_type.values())
    stats = cluster.network.metrics.self_stats()
    return {
        "window_sim_s": window,
        "objects": total,
        "per_machine": round(total / machines, 2),
        "by_type": dict(by_type.most_common()),
        "live_connections": live["Connection"],
        "live_deques": live["deque"],
        "metrics_updates": stats["updates"],
        "series_points": stats["series_points"],
        "processes": processes,
        "stores": stores,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--machines", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--sim-minutes", type=float, default=3.0,
                        help="length of the collections cell (rbbench: 3)")
    parser.add_argument("--window", type=float, default=1.9,
                        help="census window in simulated seconds")
    args = parser.parse_args(argv)

    report = {
        "machines": args.machines,
        "seed": args.seed,
        "collections": collections(args.machines, args.seed, args.sim_minutes),
        "census": census(args.machines, args.seed, args.window),
    }
    cell, born = report["collections"], report["census"]
    print(
        f"gc-census: {args.machines} machines, seed {args.seed}: "
        f"{cell['sim_minutes']:g} sim-min bare cell {cell['wall_s']:.2f} s, "
        f"{cell['collections']} collections ({cell['full_collections']} full), "
        f"{cell['gc_s']:.2f} s in the collector"
    )
    print(
        f"gc-census: {born['objects']} tracked objects born in "
        f"{born['window_sim_s']:g} sim-s and still alive "
        f"({born['per_machine']:.2f} per machine):"
    )
    for name, count in list(born["by_type"].items())[:12]:
        print(f"  {count:>8}  {name}")
    print(
        f"gc-census: live in the process: {born['live_connections']} "
        f"Connection, {born['live_deques']} deque; metrics: "
        f"{born['metrics_updates']} updates kept as "
        f"{born['series_points']} series points"
    )
    print(
        "gc-census: retained at steady state: "
        + ", ".join(
            f"{born[key]['count']} {name} x {born[key]['mean_bytes']:.0f} B"
            for key, name in (("processes", "OSProcess"), ("stores", "Store"))
        )
    )
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
