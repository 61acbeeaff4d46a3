"""Paired rbbench runs of a parent revision and this checkout.

    python3 benchmarks/pairs.py --workload paper-tables --base HEAD~1
    make bench-pairs W=paper-tables BASE=HEAD~1 [N=10]

Exports ``--base`` with ``git archive`` into a temporary directory, refuses
to go on unless ``BENCHMARK.json`` and every file under its ``paths``
(``benchmarks/rbbench/``) are byte-identical on both sides, then runs the
benchmark's own command with ``--trace 0`` in ``--pairs`` (at least ten)
pairs: one seed per pair, parent first in even pairs and change first in
odd ones.  Seeds are drawn from a hash of the base commit and the workload,
so nobody picked them and no development run used them.

For each end-to-end metric it prints both medians, the parent's
inter-quartile range, how many pairs the change won, and the verdict of
the claim rule in ``benchmarks/rbbench/README.md``:

* ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  inter-quartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: neither, and the parent's own runs spread wider than the
  bound, so "no worse" cannot be told;
* ``same``: neither, within the bound.

Exit status: 0, or 1 when a metric is ``worse``, a run fails or is not
``correct``, or more operations fail on the change; 2 when it refuses.

    python3 benchmarks/pairs.py --workload churn-1024 --base HEAD~1 --facts [--seed N]
    make bench-pairs W=churn-1024 BASE=HEAD~1 FACTS=1 [SEED=N]

``--facts`` answers "what did the change do to the simulation" instead of
"what did it do to the host": one ``--trace 1`` run per side at the same
seed, then both ``sim_digest``s and every exact fact — a metric whose unit
is ``count``, ``bytes`` or ``sim_s``, the same on any hardware — that
differs, parent -> change: the simulation's own counters first, then the
profiler's per-layer call counts, then two sums of broker layers' calls:
the four control layers, and the heartbeat path (``broker.daemon`` plus
``broker.other``, where the lease ingest lives).  Equal digests mean the
change is invisible to the simulation on that workload.  Exit status 1
only when a run fails or is not ``correct``.

    python3 benchmarks/pairs.py --workload churn-1024 --base HEAD~1 --census [--seed N]
    make bench-pairs W=churn-1024 BASE=HEAD~1 CENSUS=1 [SEED=N]

``--census`` asks what the churn cell (1024 machines, as in ``churn-1024``)
makes the host's cyclic collector do, in a fresh process per side: the
collections, full collections and seconds in the collector over 3 simulated
minutes, against the cell's wall time (host measurements); then, exact on any
host, what generation 0 holds after 1.9 simulated seconds of steady state with
the collector off (born in that window, still alive, re-walked by every young
collection), the live ``Connection`` and ``deque`` objects, the registry's
updates against its series points, and the live ``OSProcess`` and ``Store``
objects with the mean bytes each retains (itself plus the containers it owns).
"""

from __future__ import annotations

import argparse
import filecmp
import gc
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter, deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
#: Units of metrics that are functions of the simulation (or, for the
#: profiler's call counts, of the program) alone: equal on any host.
FACT_UNITS = ("count", "bytes", "sim_s")


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True
    ).stdout


def export(rev: str, target: Path) -> None:
    """``git archive rev`` unpacked under ``target``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(target)


def benchmark_files(root: Path, paths: Sequence[str]) -> Dict[str, Path]:
    """``BENCHMARK.json`` and every file under ``paths`` that git would keep
    (tracked, or untracked and not ignored), by path relative to ``root``."""
    if (root / ".git").exists():
        listed = git("ls-files", "-co", "--exclude-standard", "--", *paths)
        names = listed.decode().splitlines()
    else:
        names = [
            str(p.relative_to(root))
            for path in paths
            for p in sorted((root / path).rglob("*"))
            if p.is_file()
        ]
    return {name: root / name for name in ["BENCHMARK.json", *names]}


def benchmark_differences(base: Path, paths: Sequence[str]) -> List[str]:
    """Files of the benchmark that are not the same bytes on both sides."""
    ours, theirs = benchmark_files(ROOT, paths), benchmark_files(base, paths)
    return sorted(
        name
        for name in ours.keys() | theirs.keys()
        if name not in ours
        or name not in theirs
        or not ours[name].exists()
        or not filecmp.cmp(ours[name], theirs[name], shallow=False)
    )


def run_once(root: Path, command: Sequence[str], workload: str, seed: int,
             seconds: float, trace: int = 0) -> Dict[str, Any]:
    """One run in ``root``: the JSON object of its last line, plus the
    ``sim_digest`` it printed on the way."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run failed in {root} (exit {done.returncode})")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    digest = re.search(r"^\s*sim_digest (\w+)", done.stdout, re.MULTILINE)
    result["sim_digest"] = digest.group(1) if digest else None
    return result


def verdict(parent: Sequence[float], change: Sequence[float], lower: bool,
            bound: float) -> Tuple[str, int, int]:
    """(verdict, pairs the change won, pairs tied) for one metric."""
    sign = 1.0 if lower else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    q1, median, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (median - statistics.median(change))
    if 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return "gain", wins, ties
    if -gain > bound * abs(median):
        return "worse", wins, ties
    if q3 - q1 > bound * abs(median):
        return "unresolved", wins, ties
    return "same", wins, ties


def facts(parent: Dict[str, Any], change: Dict[str, Any]) -> int:
    """Print both digests and every exact fact that differs; exit status."""
    same = parent["sim_digest"] == change["sim_digest"]
    print(f"  sim_digest parent={parent['sim_digest']} "
          f"change={change['sim_digest']} {'equal' if same else 'DIFFER'}")
    # The benchmark is the same files on both sides, so are the names.
    before, after = parent["metrics"], change["metrics"]
    exact = [name for name, m in before.items() if m["unit"] in FACT_UNITS]
    moved = [name for name in exact if before[name] != after[name]]
    # The simulation's own counters first, the profiler's call counts after.
    moved.sort(key=lambda name: name.endswith(".calls"))
    for name in moved:
        old, new = (format(side[name]["value"], ".10g") for side in (before, after))
        print(f"  {name:34s} {old:>12s} -> {new:<12s} {before[name]['unit']}")
    print(f"  {len(moved)} of {len(exact)} exact facts differ")
    # Layer sums: the broker's control layers, so moving code between broker
    # files (a new file lands in broker.other) compares at a glance; and the
    # heartbeat path, the daemon plus the broker's lease ingest.
    for parts in (("core", "other", "journal", "replica"), ("daemon", "other")):
        split = [f"broker.{part}.calls" for part in parts]
        old, new = (
            sum(side[name]["value"] for name in split) for side in (before, after)
        )
        label = f"broker.{{{','.join(parts)}}}.calls"
        print(f"  {label:42s} {old:.10g} -> {new:.10g} ({(new - old) / old:+.2%})")
    status = 0
    for side, run in (("parent", parent), ("change", change)):
        print(f"{side}: failed {run['failed']} of {run['attempted']} operations, "
              f"{'correct' if run['correct'] else 'NOT correct'}")
        if not run["correct"]:
            status = 1
    return status


#: The census cell: ``churn-1024``'s cluster size.
CENSUS_MACHINES = 1024
#: Simulated seconds the churn cell needs before every machine is granted and
#: the first arrival placed: from here on each period looks alike.
STEADY_SIM_S = 40.0
#: The census window: just under one heartbeat period.
WINDOW_SIM_S = 1.9
#: What "the containers an object owns" are, for :func:`retained_bytes`.
OWNED_CONTAINERS = (list, set, dict, deque)


def retained_bytes(obj: Any) -> int:
    """Shallow size of ``obj`` plus that of the containers it owns."""
    size, values = sys.getsizeof(obj), []
    if hasattr(obj, "__dict__"):
        size += sys.getsizeof(obj.__dict__)
        values.extend(vars(obj).values())
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if not name.startswith("__") and hasattr(obj, name):
                values.append(getattr(obj, name))
    return size + sum(
        sys.getsizeof(v) for v in values if isinstance(v, OWNED_CONTAINERS)
    )


def census(side: str, seed: int) -> None:
    """Print what the churn cell makes the collector do (see the module
    docstring), each line led by ``side``.  The ``repro`` it measures is
    whichever ``PYTHONPATH`` names: :func:`census_side` runs it per side."""
    from repro.cluster import Cluster, ClusterSpec
    from repro.experiments.sweep import WORKLOADS
    from repro.os.process import OSProcess
    from repro.sim.stores import Store

    def cell():
        cluster = Cluster(ClusterSpec.uniform(CENSUS_MACHINES, seed=seed))
        service = cluster.start_broker()
        service.wait_ready()
        return cluster, service

    spent = Counter()

    def hook(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            spent["started"] = time.perf_counter()
        else:
            spent["gc_s"] += time.perf_counter() - spent["started"]
            spent["collections"] += 1
            spent["full"] += info["generation"] == 2

    cluster, service = cell()
    gc.collect()
    gc.callbacks.append(hook)
    begin = time.perf_counter()
    WORKLOADS["churn"](cluster, service, 180.0)
    wall = time.perf_counter() - begin
    gc.callbacks.remove(hook)
    print(f"{side}: 3 sim-min cell {wall:.2f} s wall, "
          f"{spent['collections']} collections ({spent['full']} full), "
          f"{spent['gc_s']:.2f} s in the collector ({spent['gc_s'] / wall:.1%})")

    cluster, service = cell()
    WORKLOADS["churn"](cluster, service, STEADY_SIM_S)
    gc.collect()
    gc.disable()
    cluster.env.run(until=cluster.now + WINDOW_SIM_S)
    born = gc.get_objects(generation=0)
    young = Counter(type(o).__name__ for o in born)
    del born
    everything = gc.get_objects()
    gc.enable()
    total = sum(young.values())
    print(f"{side}: {total} tracked objects born in {WINDOW_SIM_S:g} sim-s and "
          f"still alive ({total / CENSUS_MACHINES:.2f} per machine): "
          + ", ".join(f"{n} {t}" for t, n in young.most_common(8)))
    live = Counter(type(o).__name__ for o in everything)
    stats = cluster.network.metrics.self_stats()
    held = []
    for kind in (OSProcess, Store):
        objs = [o for o in everything if isinstance(o, kind)]
        mean = sum(map(retained_bytes, objs)) / max(len(objs), 1)
        held.append(f"{len(objs)} {kind.__name__} x {mean:.0f} B")
    print(f"{side}: live {live['Connection']} Connection, {live['deque']} deque; "
          f"{stats['updates']} metrics updates kept as {stats['series_points']} "
          f"series points; retained {', '.join(held)}")


def census_side(side: str, root: Path, seed: int) -> None:
    """:func:`census` in a fresh process on ``root``'s ``repro``."""
    path = os.pathsep.join((str(root / "src"), str(ROOT / "benchmarks")))
    done = subprocess.run(
        [sys.executable, "-c", f"import pairs; pairs.census({side!r}, {seed})"],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"census failed in {root} (exit {done.returncode})")


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument(
        "--facts", action="store_true",
        help="one --trace 1 run per side: digests and the exact facts that differ",
    )
    parser.add_argument(
        "--census", action="store_true",
        help="the host's cyclic collector on the churn cell, one run per side "
             "(--workload churn-1024)",
    )
    parser.add_argument(
        "--seed", type=int,
        help="seed of the --facts or --census runs (default: pair 1's)",
    )
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"the claim rule needs at least {MIN_PAIRS} pairs")
    if args.seed is not None and not (args.facts or args.census):
        parser.error("--seed goes with --facts or --census; pairs draw their own")
    if args.census and args.workload != "churn-1024":
        parser.error("--census measures the churn cell: --workload churn-1024")

    base_sha = git("rev-parse", args.base).decode().strip()
    with tempfile.TemporaryDirectory(prefix="rbbench-base-") as tmp:
        base = Path(tmp)
        export(base_sha, base)
        differing = benchmark_differences(base, spec["paths"])
        if differing:
            print("refusing: the benchmark differs between the two sides:")
            for name in differing:
                print(f"  {name}")
            return 2

        seeds = [
            int(hashlib.sha256(
                f"{base_sha}:{args.workload}:{i}".encode()
            ).hexdigest()[:8], 16)
            for i in range(args.pairs)
        ]
        seed = seeds[0] if args.seed is None else args.seed
        if args.census:
            print(f"census workload={args.workload} base={base_sha[:7]} "
                  f"change={ROOT} seed={seed}")
            for side, root in (("parent", base), ("change", ROOT)):
                census_side(side, root, seed)
            return 0
        if args.facts:
            print(f"facts workload={args.workload} base={base_sha[:7]} "
                  f"change={ROOT} seed={seed}")
            return facts(*(
                run_once(root, spec["command"], args.workload, seed,
                         spec["run_seconds"], trace=1)
                for root in (base, ROOT)
            ))
        print(
            f"pairs workload={args.workload} base={base_sha[:7]} "
            f"change={ROOT} pairs={args.pairs} seconds={spec['run_seconds']}"
        )
        results: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(run_once(
                    base if side == "parent" else ROOT,
                    spec["command"], args.workload, seed, spec["run_seconds"],
                ))
            p, c = results["parent"][-1], results["change"][-1]
            print(f"  pair {i + 1:2d} seed={seed:<10d} first={order[0]:6s} " + " ".join(
                f"{m['name']}={p['metrics'][m['name']]['value']:.4g}"
                f"/{c['metrics'][m['name']]['value']:.4g}"
                for m in spec["end_to_end"]
            ))

    status = 0
    print(f"{'metric':12s} {'parent':>9s} {'change':>9s} {'delta':>8s} "
          f"{'parent IQR':>19s} {'wins':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        what, wins, ties = verdict(
            parent, change, metric["better"] == "lower", metric["bound"]
        )
        q1, median, q3 = statistics.quantiles(parent, n=4)
        after = statistics.median(change)
        print(
            f"{name:12s} {median:9.4g} {after:9.4g} {(after - median) / median:+8.1%} "
            f"{q1:9.4g}-{q3:<9.4g} {wins:3d}/{len(parent) - ties:<2d}  {what}"
        )
        if what == "worse":
            status = 1
    failed_share = {}
    for side, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        print(f"{side}: failed {failed} of {attempted} operations, "
              f"{wrong} of {len(runs)} runs not correct")
        failed_share[side] = failed / attempted if attempted else 0.0
        if wrong:
            status = 1
    if failed_share["change"] > failed_share["parent"]:
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
