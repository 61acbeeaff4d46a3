"""Exact-fact gates against one pin file, ``BENCH_gates.json``.

    python benchmarks/gates.py [NAME ...]             # check every (or each named) gate
    python benchmarks/gates.py [NAME ...] --update    # rewrite those gates' pins
    make gates [G=NAME]

Each gate runs one seeded scenario on the simulated clock and returns two
things: its exact facts (counts, bytes, simulated seconds, digests — the same
on any host) and the invariants it found broken.  The runner compares the
facts with the gate's block of the pin file, runs every gate even after one
has failed, prints one verdict line per gate and exits 1 if any failed.
``--update`` rewrites a gate's block only when its invariants hold.

Safety has one judge, the invariant oracle (``repro.broker.invariants``):
the checked gates (``chaos``, ``soak``, ``failover``, ``federation``) run
their scenarios under ``checked()``, every violation is a broken
invariant, and a checked gate whose blocks built no cluster fails.  The
broker's self-reports (``fencing.double_grants``, ``stuck_allocations``)
stay pinned facts, not verdicts.

No gate reads the host clock: wall time is rbbench's (``benchmarks/rbbench``,
``benchmarks/pairs.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "BENCH_gates.json"

Facts = Dict[str, Any]
Gate = Callable[..., Tuple[Facts, List[str]]]

#: Gate name -> gate, in the order ``make gates`` runs them.
GATES: Dict[str, Gate] = {}
#: The gates judged by the oracle: each is called with a :class:`Judge`.
CHECKED = set()


def gate(fn: Gate) -> Gate:
    GATES[fn.__name__] = fn
    return fn


def checked_gate(fn: Gate) -> Gate:
    CHECKED.add(fn.__name__)
    return gate(fn)


class Judge:
    """The invariant oracle's verdict over a checked gate's scenarios."""

    def __init__(self) -> None:
        self.clusters = 0
        self.broken: List[str] = []

    @contextlib.contextmanager
    def checked(self, settle: bool = True):
        """Check every cluster built inside the block after every event and,
        if ``settle``, the settle-time properties once the block ends."""
        from repro.broker.invariants import checked

        with checked() as watch:
            yield
        if settle:
            watch.settled()
        self.clusters += len(watch.oracles)
        self.broken += [str(o.first) for o in watch.oracles if o.first is not None]


def require(ok: bool, what: str) -> None:
    """A scenario's precondition; unlike ``assert``, it holds under ``-O``."""
    if not ok:
        raise AssertionError(what)


@checked_gate
def chaos(judge: Judge) -> Tuple[Facts, List[str]]:
    """Machine crashes, a partition, a daemon kill and a broker SIGKILL plus
    restart (seed 1): every job completes, the oracle holds, and a same-seed
    replay renders the same table and the same span trace."""
    from repro.experiments.chaos import SCENARIOS, run_chaos
    from repro.obs import TraceCollector

    def run():
        collector = TraceCollector()
        table = run_chaos(seed=1, **SCENARIOS["restart"], trace=collector)
        return table, hashlib.sha256(collector.jsonl().encode()).hexdigest()

    with judge.checked():
        (table, digest), (replay, replay_digest) = run(), run()
    meta = table.meta
    broken = []
    if meta["completed"] != meta["jobs"]:
        broken.append(f"only {meta['completed']}/{meta['jobs']} jobs completed")
    if str(replay) != str(table) or replay_digest != digest:
        broken.append("a same-seed replay differs: recovery is nondeterministic")
    facts = {key: meta[key] for key in ("jobs", "completed", "stuck_allocations")}
    return {**facts, "trace_digest": digest}, broken


def _churn(machines: int, bounded: bool = False) -> Dict[str, Any]:
    """The churn cell at ``machines`` (seed 2, 10 simulated minutes), on a
    default or a ``ClusterSpec.bounded`` cluster."""
    from repro.experiments.sweep import run_cell

    cell = run_cell("churn", machines, seed=2, sim_minutes=10.0, bounded=bounded)
    return cell["result"]


#: The lazy-deletion heap's high-water mark tracks the live population, not
#: total event churn: under this many entries per machine on the churn cell.
HEAP_ENTRIES_PER_MACHINE = 50


def _heap_over_budget(machines: int, high_water: int) -> List[str]:
    if high_water < HEAP_ENTRIES_PER_MACHINE * machines:
        return []
    return [
        f"{machines} machines: heap high-water {high_water} is not under "
        f"{HEAP_ENTRIES_PER_MACHINE} entries per machine"
    ]


@gate
def kernel() -> Tuple[Facts, List[str]]:
    """The kernel's own counters on the 32-machine churn cell, and the heap
    high-water of the 1,024- and 4,096-machine cells."""
    heap = _churn(32)["heap"]
    facts = {
        "events_processed": heap["processed"],
        "heap_high_water": heap["heap_high_water"],
    }
    broken: List[str] = []
    for machines in (1024, 4096):
        high_water = _churn(machines)["heap"]["heap_high_water"]
        facts[f"heap_high_water_{machines}"] = high_water
        broken += _heap_over_budget(machines, high_water)
    return facts, broken


@gate
def broker() -> Tuple[Facts, List[str]]:
    """The broker's control-plane counters on the 256-machine churn cell,
    and its heap high-water."""
    result = _churn(256)
    metrics = result["metrics"]

    def counter(name: str) -> int:
        return int(metrics.get(name, {}).get("value", 0))

    high_water = result["heap"]["heap_high_water"]
    return {
        "events_processed": result["heap"]["processed"],
        "heap_high_water": high_water,
        "grants": result["grants"],
        "policy_decisions": counter("broker.policy_decisions"),
        "sched_passes": counter("broker.sched_passes"),
        "machines_scanned": result["broker"]["machines_scanned"],
        "sweep_scans": counter("broker.sweep_scans"),
        "daemon_full_reports": counter("rbdaemon.full_reports"),
        "daemon_beacons": counter("rbdaemon.beacons"),
        "daemon_report_bytes": counter("rbdaemon.report_bytes"),
    }, _heap_over_budget(256, high_water)


@gate
def obs() -> Tuple[Facts, List[str]]:
    """What observing keeps on the 256-machine churn cell in the default
    (``full``) and the ``bounded`` profile, and that the profile never
    changes the simulation.  (That a bounded registry stays flat is a
    tier-1 test, ``tests/obs/test_timeseries.py``.)"""
    facts = {}
    for name, bounded in (("full", False), ("bounded", True)):
        result = _churn(256, bounded)
        facts[name] = {
            "events_processed": result["heap"]["processed"],
            "spans": result["spans"],
            "grants": result["grants"],
            "updates": result["obs"]["updates"],
            "series_points": result["obs"]["series_points"],
        }
    broken = []
    events = {name: entry["events_processed"] for name, entry in facts.items()}
    if len(set(events.values())) != 1:
        broken.append(f"observability leaked into the simulation: {events}")
    return facts, broken


#: Live traced bytes per submission allowed over the soak's second half.
BYTES_PER_SUBMISSION_BUDGET = 256.0
#: On-disk journal ceiling (chars): compaction triggers at 64 KiB, so disk
#: should hover near two generations' worth whatever the trace length.
JOURNAL_CEILING = 262_144
SOAK_SUBMISSIONS = 3_000


@checked_gate
def soak(judge: Judge) -> Tuple[Facts, List[str]]:
    """3,000 submissions through a durable 12-machine broker with two
    restarts: full drain, the oracle holds, flat memory, a bounded journal."""
    from repro.experiments import run_soak

    with judge.checked():
        report = run_soak(
            seed=1, machines=12, submissions=SOAK_SUBMISSIONS, restarts=2,
            memory_checkpoints=20,
        )
    facts = {
        key: getattr(report, key)
        for key in (
            "completed", "failed", "grants", "revocations",
            "journal_compactions", "journal_bytes", "stuck_allocations",
            "journal_lag_events", "finished_at",
        )
    }
    for key in ("recoveries_from_journal", "replayed_records", "recovery_conflicts"):
        facts[key] = int(getattr(report, key))
    samples = report.memory_samples
    half = len(samples) // 2
    span = samples[-1][0] - samples[half][0]
    per_submission = (samples[-1][1] - samples[half][1]) / max(span, 1)
    broken = []
    if report.completed != SOAK_SUBMISSIONS or report.failed:
        broken.append(
            f"not drained: {report.completed}/{SOAK_SUBMISSIONS} completed, "
            f"{report.failed} failed"
        )
    if per_submission > BYTES_PER_SUBMISSION_BUDGET:
        broken.append(f"memory not flat: {per_submission:.1f} B per submission")
    if report.journal_bytes > JOURNAL_CEILING:
        broken.append(f"journal unbounded: {report.journal_bytes} chars on disk")
    return facts, broken


def _failover(standby: bool) -> Facts:
    """Crash the broker of a 5-machine cluster (seed 11) at 10 sim-s under a
    2-wide adaptive job; recover by standby promotion or by a journal
    restart 4 sim-s later (the fault plan's convention), then settle."""
    from repro.cluster import Cluster, ClusterSpec
    from repro.workloads import install_churn

    workers = ["n00", "n01", "n02", "n03"]
    cluster = Cluster(ClusterSpec.uniform(5, seed=11))
    extra = {"standby_host": "n04"} if standby else {}
    svc = cluster.start_broker(journal=True, managed_hosts=workers, **extra)
    svc.wait_ready()
    install_churn(cluster.system_bin)
    handle = svc.submit("n01", ["greedy", "2"], rsl="+(adaptive)")
    cluster.env.run(until=10.0)
    job = handle.job_record()
    require(len(svc.holdings()[job.jobid]) == 2, "not at strength before crash")

    crash_at = cluster.now
    svc.crash_broker()
    if standby:
        # svc.ready is replaced only at the promotion instant: step to it.
        while not svc.events_of("broker_promoted"):
            cluster.env.run(until=cluster.now + 0.25)
            require(cluster.now < crash_at + 30.0, "standby never promoted")
        detected_at = svc.events_of("broker_promoted")[0]["time"]
    else:
        cluster.env.run(until=crash_at + 4.0)
        svc.restart_broker()
        detected_at = cluster.now
    svc.wait_ready()
    ready_at = cluster.now
    cluster.env.run(until=ready_at + 10.0)
    require(handle.proc.is_alive, "app died across the failover")
    cluster.assert_no_crashes()
    counter = svc.metrics.counter
    return {
        "disruption_seconds": round(ready_at - crash_at, 6),
        "detection_seconds": round(detected_at - crash_at, 6),
        "ready_gap_seconds": round(ready_at - detected_at, 6),
        "double_grants": counter("fencing.double_grants").value,
        "holdings_after": len(svc.holdings()[job.jobid]),
        "promotions": counter("broker.promotions").value,
        "restarts": counter("broker.restarts").value,
    }


@checked_gate
def failover(judge: Judge) -> Tuple[Facts, List[str]]:
    """Warm-standby promotion against restart-and-recover: promotion's
    client-visible disruption must be strictly shorter, the oracle holds on
    both paths after every event, and the job must be back at full strength.
    The scenario ends with the job still running, so nothing settles."""
    with judge.checked(settle=False):
        facts = {"promotion": _failover(True), "restart": _failover(False)}
    broken = []
    promotion = facts["promotion"]["disruption_seconds"]
    restart = facts["restart"]["disruption_seconds"]
    if promotion >= restart:
        broken.append(f"promotion {promotion} s is not faster than restart {restart} s")
    for path, entry in facts.items():
        if entry["holdings_after"] != 2:
            broken.append(f"{path}: the job holds {entry['holdings_after']}, not 2")
    return facts, broken


def _flatness(shards: int) -> Facts:
    """4096 machines (seed 7) as ``shards`` shards, four jobs per shard."""
    from repro.cluster import Cluster, ClusterSpec

    cluster = Cluster(ClusterSpec.uniform(4096, seed=7))
    federation = cluster.start_federation(shards=shards)
    federation.wait_ready()
    handles = [
        federation.submit(
            service.broker_host, ["rsh", "anylinux", "compute", str(5 + k)],
            uid=f"u{k}",
        )
        for service in federation.services
        for k in range(4)
    ]
    cluster.env.run(until=cluster.env.now + 60.0)
    require(all(h.exit_code == 0 for h in handles), "a flatness job failed")
    cluster.assert_no_crashes()
    # The registry is cluster-global: each shard's scans come from its state.
    grants = [len(s.events_of("grant")) for s in federation.services]
    require(all(grants), "a shard granted nothing")
    ratios = [
        s.state.machines_scanned / g for s, g in zip(federation.services, grants)
    ]
    return {
        "grants": sum(grants),
        "max_scans_per_grant": round(max(ratios), 6),
        "mean_scans_per_grant": round(sum(ratios) / len(ratios), 6),
        "cross_shard_grants": sum(
            blk["cross_shard_grants"] for blk in federation.federation_stats()
        ),
    }


def _borrow() -> Facts:
    """8 machines (seed 3) as 2 shards: a 4-wide adaptive job on shard 0,
    which has three candidates, while sequential work keeps shard 1 busy."""
    from repro.cluster import Cluster, ClusterSpec

    cluster = Cluster(ClusterSpec.uniform(8, seed=3))
    federation = cluster.start_federation(shards=2)
    federation.wait_ready()
    handles = [
        federation.submit(
            "n00", ["calypso", "30", "2.0", "4"], rsl="+(adaptive)", uid="cal"
        ),
        federation.submit("n04", ["retrywork", "8"], uid="seq0"),
        federation.submit("n04", ["retrywork", "10"], uid="seq1"),
    ]
    cluster.env.run(until=300.0)
    require(all(h.exit_code == 0 for h in handles), "a borrow job failed")
    cluster.assert_no_crashes()
    stats = federation.federation_stats()
    facts = {
        key: sum(blk[key] for blk in stats)
        for key in (
            "cross_shard_grants", "loans_out", "forwards", "returns",
            "double_grants",
        )
    }
    grants = sum(len(s.events_of("grant")) for s in federation.services)
    facts["grants"] = grants
    facts["borrow_fraction"] = (
        round(facts["cross_shard_grants"] / grants, 6) if grants else 0.0
    )
    return facts


def _identity() -> Facts:
    """A 5-machine run (seed 11) on a standalone broker: the size and sha256
    of the broker event log, which keeps the unsharded path pinned."""
    from repro.cluster import Cluster, ClusterSpec

    cluster = Cluster(ClusterSpec.uniform(5, seed=11))
    svc = cluster.start_broker()
    svc.wait_ready()
    svc.submit("n00", ["calypso", "30", "2.0", "3"], rsl="+(adaptive)", uid="c")
    svc.submit("n00", ["rsh", "anylinux", "compute", "10"], uid="s")
    cluster.env.run(until=200.0)
    cluster.assert_no_crashes()
    blob = json.dumps(svc.events, sort_keys=True, default=str)
    return {
        "events": len(svc.events),
        "digest": hashlib.sha256(blob.encode()).hexdigest(),
    }


@checked_gate
def federation(judge: Judge) -> Tuple[Facts, List[str]]:
    """Per-shard scans per grant stay a flat small constant from 4 to 16
    shards; borrowing happens but stays the escape valve; the standalone
    broker's event log stays pinned.  The oracle checks the borrow and
    identity cells.  The 4096-machine flatness cells run unchecked: the
    oracle walks every machine after every event, so checking them costs
    over 100x (until it checks only what an event changed)."""
    flat = {str(shards): _flatness(shards) for shards in (4, 16)}
    with judge.checked():
        borrow = _borrow()
        identity = _identity()
    broken = []
    four, sixteen = (flat[k]["max_scans_per_grant"] for k in ("4", "16"))
    if sixteen > 1.5 * four + 1.0:
        broken.append(f"scans/grant grew with shard count: {four} -> {sixteen}")
    for shards, cell in flat.items():
        if cell["max_scans_per_grant"] > 16.0:
            broken.append(
                f"{shards} shards: {cell['max_scans_per_grant']} scans/grant "
                f"is not a small constant"
            )
    if borrow["cross_shard_grants"] < 1:
        broken.append("the borrow scenario never crossed a shard boundary")
    if borrow["borrow_fraction"] > 0.5:
        broken.append(f"borrowing is the common path: {borrow['borrow_fraction']:.0%}")
    return {"flatness": flat, "borrow": borrow, "identity": identity}, broken


def flatten(facts: Facts, prefix: str = "") -> Dict[str, Any]:
    """Nested facts as ``{"a.b.c": value}``."""
    flat: Dict[str, Any] = {}
    for key, value in facts.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def drift(facts: Facts, pinned: Facts) -> List[str]:
    """Every fact that differs from its pin, or has none."""
    ours, theirs, none = flatten(facts), flatten(pinned), "(none)"
    return [
        f"{key}: {ours.get(key, none)} != pin {theirs.get(key, none)}"
        for key in sorted(ours.keys() | theirs.keys())
        if ours.get(key, none) != theirs.get(key, none)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"gates to run (default all: {', '.join(GATES)})")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the named gates' pins instead of checking them")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(GATES))
    if unknown:
        parser.error(f"unknown gate(s) {', '.join(unknown)}")
    sys.path.insert(0, str(ROOT / "src"))

    pins = json.loads(PINS.read_text())
    failed = []
    for name in args.names or GATES:
        judge = Judge() if name in CHECKED else None
        try:
            facts, problems = GATES[name](judge) if judge else GATES[name]()
        except Exception:  # a gate's own require(), or the program's error
            facts, problems = {}, [traceback.format_exc().rstrip()]
        else:
            if judge is not None:
                problems += judge.broken
                if not judge.clusters:
                    problems.append("the oracle checked no cluster")
            if not args.update:
                problems += drift(facts, pins.get(name, {}))
            elif not problems:
                pins[name] = facts
        for problem in problems:
            print(f"  {name}: {problem}")
        verdict = "FAIL" if problems else ("pinned" if args.update else "ok")
        oracle = f", oracle: {judge.clusters} clusters" if judge else ""
        print(f"{name:10s} {verdict:6s} {len(flatten(facts))} facts{oracle}")
        if problems:
            failed.append(name)
    if args.update:
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"gates: {len(failed)} of {len(args.names or GATES)} failed", *failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
