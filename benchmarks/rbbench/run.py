"""rbbench: one command, four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/rbbench/run.py --workload churn-1024 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload with tracing off for ``--seconds`` (at
least three repetitions) and reports the end-to-end metrics as medians.
``--trace 1`` runs one repetition plain and one under ``cProfile`` and
reports every per-layer metric.  Without ``--workload`` every workload runs,
each in a process of its own so that ``peak_rss_mb`` is that workload's.

Every run prints each metric by name with its unit, then one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``) as the last line.
See README.md for what the metrics mean and how they interact.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOAD_NAMES = ("churn-1024", "soak-12", "paper-tables", "chaos-sweep")
DEFAULT_SECONDS = 20.0
MIN_REPS = 3


def scrub_environment() -> List[str]:
    """Drop every ``RB_*`` / ``REPRO_*`` variable: they silently change the
    scheduler mode, kernel lanes and metrics mode of the program measured."""
    dropped = sorted(
        k for k in os.environ if k.startswith(("RB_", "REPRO_"))
    )
    for key in dropped:
        del os.environ[key]
    return dropped


def commit_id() -> str:
    """Short commit of the checkout, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Report:
    """Collects metrics, prints them, and renders the result line."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.invalid: List[str] = []

    def add(self, name: str, unit: str, samples: Sequence[float]) -> None:
        q1, median, q3 = quartiles(samples)
        self.metrics[name] = {"value": median, "unit": unit}
        spread = ""
        if len(samples) > 1:
            spread = f"q1={q1:.6g} q3={q3:.6g} n={len(samples)}"
        print(f"  {name:<36} {median:>14.6g} {unit:<8} {spread}".rstrip())

    def result_line(self, attempted: int, failed: int) -> str:
        return json.dumps(
            {
                "correct": not self.invalid,
                "attempted": attempted,
                "failed": failed,
                "metrics": self.metrics,
            }
        )


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    dropped = scrub_environment()
    if not (SRC / "repro").is_dir():
        print(f"rbbench: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from timing import HostSpeed, Stopwatch

    # End-to-end times are corrected for host speed (timing.py); the traced
    # run reports ratios within one run, so its sampler never starts.
    speed = HostSpeed()
    profile = cProfile.Profile() if trace else None
    # Whatever happens, the timer stops before the interpreter does: a tick
    # that arrives during shutdown kills the process with SIGALRM (exit 142)
    # and the traceback of what went wrong is lost.
    if profile is None:
        speed.start()
    try:
        with Stopwatch(speed=speed) as importing:
            import workloads as wl
        fn = wl.WORKLOADS[workload]

        def one_rep(size_smoke: bool, profiler: Any = None):
            gc.collect()
            setup = Stopwatch(speed=speed)
            timed = Stopwatch(profiler, speed)
            rep = fn(seed, size_smoke, setup, timed)
            return rep, setup, timed

        one_rep(True)  # warm-up at smoke scale, discarded

        started = time.perf_counter()
        reps = [one_rep(smoke)]
        if profile is not None:
            reps.append(one_rep(smoke, profile))
        else:
            while True:
                spent = time.perf_counter() - started
                if len(reps) >= MIN_REPS and spent + spent / len(reps) / 2 >= seconds:
                    break
                reps.append(one_rep(smoke))
    finally:
        speed.stop()

    first = reps[0][0]
    print(
        f"rbbench workload={workload} seed={seed} trace={int(trace)} "
        f"reps={len(reps)} smoke={int(smoke)} python={platform.python_version()} "
        f"nproc={os.cpu_count()} commit={commit_id()} "
        f"scrubbed={','.join(dropped) or '-'}"
    )

    # Simulation-derived numbers must not depend on the host: every
    # repetition of one seed (profiled or not) has to agree exactly.
    report = Report()
    digests = {rep.digest() for rep, _, _ in reps}
    print(f"  sim_digest {first.digest()[:16]} over {len(reps)} repetitions")
    if len(digests) > 1:
        report.invalid.append(
            "repetitions disagree: host state leaked into the simulation"
        )
    report.invalid.extend(first.invalid)
    for line in first.failures:
        print(f"  failed: {line}")

    if profile is not None:
        add_per_layer(report, workload, seed, reps, profile)
    else:
        walls = [timed.wall for _, _, timed in reps]
        print("  wall_s as measured: " + " ".join(f"{w:.3f}" for w in walls))
        cpu = sum(timed.cpu for _, _, timed in reps) / sum(walls)
        print(f"  cpu_over_wall {cpu:.3f} (below 0.95: the host was contended)")
        report.add("wall_s", "s", [timed.corrected for _, _, timed in reps])
        report.add(
            "setup_s",
            "s",
            [importing.corrected + setup.corrected for _, setup, _ in reps],
        )
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report.add("peak_rss_mb", "MiB", [peak_kib / 1024.0])

    for reason in report.invalid:
        print(f"  INVALID: {reason}")
    print(report.result_line(first.attempted, first.failed))
    return 0


def add_per_layer(report: Report, workload: str, seed: int, reps, profile) -> None:
    """Per-layer metrics from one plain and one profiled repetition."""
    import layers
    import repro
    import workloads as wl

    (plain, _, plain_timed), (_, _, traced_timed) = reps
    facts = plain.facts
    folded = layers.fold_profile(
        profile, layers.LayerMap(os.path.dirname(repro.__file__), str(HERE))
    )
    total = sum(folded["self_s"].values())
    undeclared = folded["self_s"][layers.UNDECLARED] / total
    if undeclared > layers.MAX_UNDECLARED_SHARE:
        report.invalid.append(
            f"{undeclared:.1%} of self time is in files of no declared layer"
        )
    for layer in layers.LAYERS:
        report.add(f"{layer}.self_share", "ratio", [folded["self_s"][layer] / total])
        report.add(f"{layer}.calls", "count", [folded["calls"][layer]])
    report.add(
        "bench.trace_overhead_ratio", "ratio", [traced_timed.wall / plain_timed.wall]
    )
    report.add("bench.cpu_over_wall", "ratio", [plain_timed.cpu / plain_timed.wall])
    # Below 1 by what cProfile failed to attribute (README, "cProfile and
    # yield from"); the shares above are of the attributed time.
    report.add("bench.profile_coverage", "ratio", [total / traced_timed.wall])

    for name, unit in wl.FACT_UNITS.items():
        report.add(name, unit, [facts[name]])

    events = facts["sim.events_processed"]
    us_per_event = plain_timed.wall / events * 1e6
    reference = plain.reference_us_per_event
    grants = facts["broker.core.grants"]
    scanned = facts["broker.state.machines_scanned"]
    report.add("sim.events_per_sim_min", "1/min", [events / plain.sim_seconds * 60])
    report.add("sim.us_per_event", "us", [us_per_event])
    report.add(
        "sim.scale_ratio_1024_over_64",
        "ratio",
        [us_per_event / reference if reference else 0.0],
    )
    report.add(
        "broker.state.scans_per_grant", "ratio", [scanned / grants if grants else 0.0]
    )
    report.add("failed_fraction", "ratio", [plain.failed / plain.attempted])
    for name, value in folded["counted"].items():
        report.add(name, "count", [value])

    # The raw per-file table, so a file that moves between layers (or into
    # none) can be seen; held in memory until now, written once.
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}.json"
    table = {
        "workload": workload,
        "seed": seed,
        "traced_self_s": total,
        "layers": folded["self_s"],
        "files": dict(
            sorted(folded["files"].items(), key=lambda kv: -kv[1]["self_s"])
        ),
    }
    path.write_text(json.dumps(table, indent=1) + "\n")
    print(f"  per-file table: {path.relative_to(ROOT)}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes (64 machines, 300 submissions, 3 seeds) for the tests",
    )
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    status = 0
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve())]
        command += ["--workload", workload, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        status = subprocess.run(command).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
