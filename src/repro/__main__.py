"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``reproduce [--quick]``
    Regenerate every table and figure from the paper's evaluation.
``table1 | table2 | table3 | fig7 | utilization``
    Regenerate one artefact.
``demo``
    A 90-second tour: an adaptive job breathing around sequential arrivals,
    finished off with the allocation Gantt chart.
``chaos [--seed N|A-B] [--scenario NAME|all]``
    Robustness capstone: a mixed workload under a seeded fault schedule
    (crashes, partitions, lost heartbeats), checked after every event by the
    invariant oracle (:mod:`repro.broker.invariants`); exits non-zero
    unless every job completes and no safety property ever failed.  The
    scenario (:data:`repro.experiments.chaos.SCENARIOS`) adds a broker
    restart, a durable journal, a warm standby or federated shards.  A seed
    range or ``all`` sweeps: one JSONL line per red run, then the red rate
    per scenario and per rule.  A run past the kernel-event budget
    (:data:`repro.experiments.chaos.EVENT_BUDGET`) is ``stalled``, not
    waited for.
``sweep [--workers N]``
    Fan a deterministic (seed x cluster-size x workload) simulation grid
    across worker processes; merged results are byte-identical for any
    worker count (see :mod:`repro.experiments.sweep`).
``slo [--minutes M]``
    Run the churn workload under a health monitor and the invariant oracle;
    print the health report, the grant-wait p95 objective and the oracle's
    verdict; exits non-zero on a missed objective or a violated invariant.
``soak [--submissions N]``
    Service-mode soak: the durable (journaled) broker under a large
    diurnal arrival trace with mid-run crash/restarts; exits non-zero
    unless the trace drains with zero stuck allocations.
"""

from __future__ import annotations

import argparse
import re
import sys

#: Shared help text for every subcommand's ``--trace`` option.
_TRACE_HELP = (
    "export the run's span trace to PATH "
    "(.jsonl for JSON Lines, anything else for Chrome trace_event "
    "format loadable in ui.perfetto.dev)"
)


def _collector(args):
    """A TraceCollector when ``--trace`` was given, else None."""
    if getattr(args, "trace", None) is None:
        return None
    from repro.obs import TraceCollector

    return TraceCollector()


def _write_collected(args, collector) -> None:
    if collector is not None:
        collector.write(args.trace)
        print(f"\ntrace written to {args.trace} (open in ui.perfetto.dev)")


def _cmd_reproduce(args) -> int:
    from repro.experiments import (
        run_fig7,
        run_table1,
        run_table2,
        run_table3,
        run_utilization,
    )

    collector = _collector(args)
    print(run_table1(trace=collector))
    print()
    print(run_table2(trace=collector))
    print()
    print(run_table3(trace=collector))
    print()
    print(run_fig7(trace=collector))
    print()
    horizon = 1800.0 if args.quick else 5 * 3600.0
    print(run_utilization(horizon=horizon, trace=collector))
    _write_collected(args, collector)
    return 0


def _cmd_single(name):
    def runner(args) -> int:
        from repro import experiments

        fn = getattr(experiments, f"run_{name}")
        collector = _collector(args)
        if name == "utilization" and args.quick:
            print(fn(horizon=1800.0, trace=collector))
        else:
            print(fn(trace=collector))
        _write_collected(args, collector)
        return 0

    return runner


def _cmd_demo(args) -> int:
    from repro.cluster import Cluster, ClusterSpec
    from repro.metrics import allocation_intervals, render_gantt

    cluster = Cluster(ClusterSpec.uniform(5, seed=1))
    service = cluster.start_broker()
    service.wait_ready()
    t0 = cluster.now
    print("adaptive job starting (wants 4 machines)...")
    service.submit(
        "n00", ["calypso", "2000", "5.0", "4"], rsl="+(adaptive)", uid="cal"
    )
    cluster.env.run(until=cluster.now + 10.0)
    for delay, dur in [(0.0, 15.0), (10.0, 20.0), (15.0, 10.0)]:
        cluster.env.run(until=cluster.now + delay)
        service.submit(
            "n00", ["rsh", "anylinux", "compute", str(dur)], uid="seq"
        )
    cluster.env.run(until=t0 + 90.0)
    intervals = allocation_intervals(service.events, until=cluster.now)
    print(render_gantt(intervals, t0, cluster.now))
    print(
        f"\n{len(service.events_of('revoke'))} revocations, "
        f"{len(service.events_of('grant'))} grants in 90 s"
    )
    if getattr(args, "trace", None) is not None:
        from repro.obs import write_trace

        write_trace(args.trace, service.tracer, service.metrics)
        print(f"trace written to {args.trace} (open in ui.perfetto.dev)")
        print("\n" + service.metrics.render())
    return 0


def _cmd_chaos(args) -> int:
    from repro.experiments.chaos import SCENARIOS, check_scenario

    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    if len(names) == 1 and len(args.seed) == 1:
        collector = _collector(args)
        table, verdict = check_scenario(names[0], args.seed[0], trace=collector)
        if table is not None:
            print(table)
            if args.verbose:
                print("\nfault plan:")
                print(table.meta["plan"])
        _write_collected(args, collector)
        # The whole point: every job survives the faults, and the oracle saw
        # every safety property hold after every event.
        if verdict is not None:
            print(f"\ninvariant violated: {verdict}")
        return 0 if verdict is None else 1
    if args.trace is not None or args.verbose:
        args.error("--trace and --verbose take one seed of one scenario")
    return _chaos_sweep(names, args.seed)


def _chaos_sweep(names, seeds) -> int:
    """One JSONL line per red run, then the red rate per scenario and per
    rule with its 95 % Wilson interval; 1 if any run was red."""
    import json
    from collections import Counter

    from repro.experiments.chaos import check_scenario

    red = []
    for name in names:
        for seed in seeds:
            verdict = check_scenario(name, seed)[1]
            if verdict is not None:
                red.append((name, verdict.rule))
                print(json.dumps({
                    "scenario": name, "seed": seed, "rule": verdict.rule,
                    "t": verdict.time, "shard": verdict.shard,
                    "log_index": verdict.log_index,
                    "trace_id": verdict.trace_id, "detail": verdict.detail,
                }))
    by_scenario, by_rule = Counter(n for n, _ in red), Counter(r for _, r in red)
    runs = len(names) * len(seeds)
    print(f"\nred runs of seeds {seeds[0]}-{seeds[-1]}, 95 % Wilson interval:")
    rows = [(f"scenario {name}", by_scenario[name], len(seeds)) for name in names]
    rows += [(f"rule {rule}", by_rule[rule], runs) for rule in sorted(by_rule)]
    for label, count, of in rows + [("all", len(red), runs)]:
        low, high = _wilson(count, of)
        print(f"  {label:<24} {count:>4}/{of:<5} {count / of:6.1%}  "
              f"[{low:5.1%}, {high:5.1%}]")
    return 1 if red else 0


def _wilson(count: int, runs: int):
    """The 95 % Wilson score interval of ``count`` red runs in ``runs``."""
    share, z2 = count / runs, 1.96**2
    centre = (share + z2 / (2 * runs)) / (1 + z2 / runs)
    spread = (z2 * share * (1 - share) / runs + z2 * z2 / (4 * runs**2)) ** 0.5
    half = spread / (1 + z2 / runs)
    return max(centre - half, 0.0), min(centre + half, 1.0)


def _seed_range(text: str) -> range:
    """``N`` or ``A-B`` (inclusive) as a range of seeds."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    seeds = range(int(match[1]), int(match[2] or match[1]) + 1) if match else ()
    if not seeds:
        raise argparse.ArgumentTypeError(f"not a seed N or a range A-B: {text!r}")
    return seeds


def _cmd_sweep(args) -> int:
    from repro.experiments.sweep import (
        canonical_json,
        format_sweep,
        merge_results,
        run_sweep,
    )

    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    seeds = [int(tok) for tok in args.seeds.split(",") if tok]
    workloads = [tok for tok in args.workloads.split(",") if tok]
    cells = run_sweep(
        workloads=workloads,
        sizes=sizes,
        seeds=seeds,
        sim_minutes=args.minutes,
        workers=args.workers,
    )
    print(format_sweep(cells))
    merged = merge_results(cells, sim_minutes=args.minutes)
    print(f"\nmerged digest: {merged['digest']}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(canonical_json(merged))
        print(f"merged results written to {args.out}")
    return 0


def _cmd_slo(args) -> int:
    from repro.broker.invariants import checked
    from repro.cluster import Cluster, ClusterSpec
    from repro.experiments.sweep import _drive_churn
    from repro.obs import HealthMonitor, evaluate_slos

    with checked() as watch:
        cluster = Cluster(ClusterSpec.uniform(args.machines, seed=args.seed))
        service = cluster.start_broker()
        service.wait_ready()
        monitor = HealthMonitor(service).start()
        _drive_churn(cluster, service, args.minutes * 60.0)
    cluster.assert_no_crashes()
    print(monitor.report().render())
    slo = evaluate_slos(service, grant_wait_p95=args.grant_wait_p95)
    print(slo.render())
    # The churn cell stops mid-flight (its greedy master never finishes), so
    # the verdict is the per-event one, not the settle-time one.
    verdict = watch.first
    if verdict is None:
        print("invariants: held after every event")
    else:
        print(f"invariant violated: {verdict}")
    return 0 if slo.passed and verdict is None else 1


def _cmd_soak(args) -> int:
    from repro.experiments import run_soak

    progress = None
    if args.verbose:

        def progress(completed, total):
            print(f"  {completed}/{total} submissions completed")

    report = run_soak(
        seed=args.seed,
        machines=args.machines,
        submissions=args.submissions,
        journal=not args.no_journal,
        restarts=args.restarts,
        memory_checkpoints=args.memory_checkpoints,
        progress=progress,
    )
    print(report.render())
    if report.memory_samples:
        print("memory checkpoints (submissions, traced bytes):")
        for completed, traced in report.memory_samples:
            print(f"  {completed:>8} {traced:>12}")
    ok = report.drained and report.stuck_allocations == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ResourceBroker (IPPS 1999) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every table and figure"
    )
    reproduce.add_argument(
        "--quick",
        action="store_true",
        help="shorten the five-hour utilization run to 30 minutes",
    )
    reproduce.add_argument("--trace", metavar="PATH", help=_TRACE_HELP)
    reproduce.set_defaults(fn=_cmd_reproduce)

    for name in ("table1", "table2", "table3", "fig7", "utilization"):
        single = sub.add_parser(name, help=f"regenerate {name} only")
        if name == "utilization":
            single.add_argument(
                "--quick",
                action="store_true",
                help="shorten the five-hour run to 30 minutes",
            )
        single.add_argument("--trace", metavar="PATH", help=_TRACE_HELP)
        single.set_defaults(fn=_cmd_single(name))

    demo = sub.add_parser("demo", help="90-second adaptive-allocation tour")
    demo.add_argument("--trace", metavar="PATH", help=_TRACE_HELP)
    demo.set_defaults(fn=_cmd_demo)

    from repro.experiments.chaos import SCENARIOS

    chaos = sub.add_parser(
        "chaos", help="mixed workload under a seeded fault schedule"
    )
    chaos.add_argument(
        "--seed",
        type=_seed_range,
        default=range(1, 2),
        metavar="N|A-B",
        help="fault-schedule seed, or an inclusive range to sweep (default 1)",
    )
    chaos.add_argument(
        "--scenario",
        choices=[*SCENARIOS, "all"],
        default="plain",
        help="the named scenario (default plain), or all of them",
    )
    chaos.add_argument(
        "--verbose", action="store_true", help="also print the fault plan"
    )
    chaos.add_argument("--trace", metavar="PATH", help=_TRACE_HELP)
    chaos.set_defaults(fn=_cmd_chaos, error=chaos.error)

    sweep = sub.add_parser(
        "sweep",
        help="fan a deterministic simulation grid across worker processes",
    )
    sweep.add_argument(
        "--sizes",
        default="8,16,32",
        help="comma-separated cluster sizes (default 8,16,32)",
    )
    sweep.add_argument(
        "--seeds", default="1", help="comma-separated seeds (default 1)"
    )
    sweep.add_argument(
        "--workloads",
        default="churn",
        help="comma-separated workload names (churn, sequential)",
    )
    sweep.add_argument(
        "--minutes",
        type=float,
        default=2.0,
        help="simulated minutes per cell (default 2)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial; results are identical either way)",
    )
    sweep.add_argument(
        "--out", metavar="PATH", help="write canonical merged results JSON"
    )
    sweep.set_defaults(fn=_cmd_sweep)

    slo = sub.add_parser(
        "slo",
        help="run the churn workload under a health monitor and the "
        "invariant oracle and evaluate its service-level objective",
    )
    slo.add_argument(
        "--machines",
        type=int,
        default=16,
        help="cluster size (default 16)",
    )
    slo.add_argument(
        "--seed", type=int, default=1, help="simulation seed (default 1)"
    )
    slo.add_argument(
        "--minutes",
        type=float,
        default=5.0,
        help="simulated minutes to run (default 5)",
    )
    slo.add_argument(
        "--grant-wait-p95",
        type=float,
        default=30.0,
        dest="grant_wait_p95",
        help="objective: p95 grant wait in seconds (default 30)",
    )
    slo.set_defaults(fn=_cmd_slo)

    soak = sub.add_parser(
        "soak",
        help="service-mode soak: the durable broker under a large diurnal "
        "arrival trace with mid-run crash/restarts",
    )
    soak.add_argument(
        "--seed", type=int, default=1, help="simulation seed (default 1)"
    )
    soak.add_argument(
        "--machines",
        type=int,
        default=12,
        help="worker machines (default 12; the broker host is extra)",
    )
    soak.add_argument(
        "--submissions",
        type=int,
        default=2000,
        help="submissions to drain (default 2000)",
    )
    soak.add_argument(
        "--restarts",
        type=int,
        default=1,
        help="broker crash+restart pairs spread across the trace (default 1)",
    )
    soak.add_argument(
        "--no-journal",
        action="store_true",
        dest="no_journal",
        help="run without the write-ahead journal (restarts then recover "
        "from daemon re-registration alone)",
    )
    soak.add_argument(
        "--memory-checkpoints",
        type=int,
        default=0,
        dest="memory_checkpoints",
        help="sample tracemalloc this many times across the run "
        "(wall-side metering; 0 = off)",
    )
    soak.add_argument(
        "--verbose", action="store_true", help="print drain progress"
    )
    soak.set_defaults(fn=_cmd_soak)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
