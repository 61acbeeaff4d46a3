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
``chaos [--seed N]``
    Robustness capstone: a mixed workload under a seeded fault schedule
    (crashes, partitions, lost heartbeats); exits non-zero unless every job
    completes.  ``--standby`` swaps the crash/restart recovery path for
    warm-standby failover (WAL shipping, fenced promotion, zero double
    grants).  ``--shards N`` runs the federated control plane instead:
    N durable broker shards with cross-shard lease borrowing under a
    shard-broker crash and an inter-shard link partition.
``sweep [--workers N]``
    Fan a deterministic (seed x cluster-size x workload) simulation grid
    across worker processes; merged results are byte-identical for any
    worker count (see :mod:`repro.experiments.sweep`).
``slo [--minutes M]``
    Run the churn workload under a health monitor and print the health and
    SLO reports (grant-wait p95, zero stuck allocations); exits non-zero
    on any violated objective.
``soak [--submissions N]``
    Service-mode soak: the durable (journaled) broker under a large
    diurnal arrival trace with mid-run crash/restarts; exits non-zero
    unless the trace drains with zero stuck allocations.
"""

from __future__ import annotations

import argparse
import json
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
    from repro.experiments import run_chaos

    collector = _collector(args)
    table = run_chaos(
        seed=args.seed,
        broker_crashes=1 if args.broker_crash else 0,
        journal=args.journal,
        standby=args.standby,
        shards=args.shards,
        trace=collector,
    )
    print(table)
    if args.verbose:
        print("\nfault plan:")
        print(table.meta["plan"])
    _write_collected(args, collector)
    # The whole point: every job survives the faults — and with a warm
    # standby or a federation, fencing must have kept the machine from
    # ever being granted twice.
    ok = table.meta["completed"] == table.meta["jobs"]
    if args.standby or args.shards >= 2:
        ok = ok and table.meta["double_grants"] == 0
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    from repro.experiments.sweep import (
        bench_report,
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
        health=args.health,
    )
    print(format_sweep(cells))
    merged = merge_results(cells, sim_minutes=args.minutes)
    print(f"\nmerged digest: {merged['digest']}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(canonical_json(merged))
        print(f"merged results written to {args.out}")
    if args.bench:
        report = bench_report(
            cells, sim_minutes=args.minutes, workload=workloads[0]
        )
        with open(args.bench, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"kernel benchmark written to {args.bench}")
    return 0


def _cmd_slo(args) -> int:
    from repro.cluster import Cluster, ClusterSpec
    from repro.experiments.sweep import _drive_churn
    from repro.obs import HealthMonitor, evaluate_slos

    cluster = Cluster(ClusterSpec.uniform(args.machines, seed=args.seed))
    service = cluster.start_broker()
    service.wait_ready()
    monitor = HealthMonitor(service).start()
    _drive_churn(cluster, service, args.minutes * 60.0)
    cluster.assert_no_crashes()
    report = monitor.report()
    print(report.render())
    slo = evaluate_slos(
        service, report, grant_wait_p95=args.grant_wait_p95
    )
    print(slo.render())
    return 0 if slo.passed else 1


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
        single.add_argument("--quick", action="store_true")
        single.add_argument("--trace", metavar="PATH", help=_TRACE_HELP)
        single.set_defaults(fn=_cmd_single(name))

    demo = sub.add_parser("demo", help="90-second adaptive-allocation tour")
    demo.add_argument("--trace", metavar="PATH", help=_TRACE_HELP)
    demo.set_defaults(fn=_cmd_demo)

    chaos = sub.add_parser(
        "chaos", help="mixed workload under a seeded fault schedule"
    )
    chaos.add_argument(
        "--seed", type=int, default=1, help="fault-schedule seed (default 1)"
    )
    chaos.add_argument(
        "--broker-crash",
        action="store_true",
        dest="broker_crash",
        help="also SIGKILL and restart the broker mid-run "
        "(exercises leases, re-registration and session resumption)",
    )
    chaos.add_argument(
        "--journal",
        action="store_true",
        help="run the broker durable (write-ahead journal + snapshot "
        "recovery) and add journal faults: a guaranteed broker crash, a "
        "torn journal tail at the crash instant, and a disk-stall window",
    )
    chaos.add_argument(
        "--standby",
        action="store_true",
        help="run with a warm-standby replica (WAL shipping) and the "
        "failover schedule: a standby kill, a ship-link partition, and a "
        "primary SIGKILL mid-ship with no restart — recovery must come "
        "from fenced promotion, with zero double grants",
    )
    chaos.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run the federated scenario: partition the machines across "
        "this many durable broker shards, force cross-shard borrowing, "
        "and add a shard-broker SIGKILL plus an inter-shard link "
        "partition — every job must complete with zero double grants",
    )
    chaos.add_argument(
        "--verbose", action="store_true", help="also print the fault plan"
    )
    chaos.add_argument("--trace", metavar="PATH", help=_TRACE_HELP)
    chaos.set_defaults(fn=_cmd_chaos)

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
    sweep.add_argument(
        "--bench",
        metavar="PATH",
        help="write the BENCH_kernel.json performance envelope",
    )
    sweep.add_argument(
        "--health",
        action="store_true",
        help="attach a health monitor to every cell and embed its report "
        "(changes event counts; off for pinned benchmarks)",
    )
    sweep.set_defaults(fn=_cmd_sweep)

    slo = sub.add_parser(
        "slo",
        help="run the churn workload under a health monitor and evaluate "
        "service-level objectives",
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
