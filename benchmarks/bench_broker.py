"""Broker control-plane gate against the pinned ``BENCH_broker.json``.

Run as a script (``make bench-broker``).  Two modes:

* **Gate** (default) — replay the pinned 256-machine churn cell and check:

  - *Determinism*: the broker's control-plane counters (policy decisions,
    scheduler passes, machine records scanned, grants, daemon full reports /
    beacons / report bytes) must match the committed baseline exactly.
    These are simulation-derived and hardware-independent; a mismatch means
    broker behaviour changed and the baseline must be regenerated
    deliberately (``python benchmarks/bench_broker.py --pin``).
  - *Performance*: broker decisions per wall-second must not regress by
    more than ``REPRO_BROKER_TOLERANCE`` (default 0.20, i.e. a >20% drop
    fails) against the baseline.  Wall-clock is machine-dependent; regenerate
    the pin when moving the baseline to new hardware.

* **Pin** (``--pin``) — run the control-plane sizes (64..1024 machines) and
  rewrite ``BENCH_broker.json``.

The interesting columns are the *per-grant* ones: with the indexed scheduler
the records scanned per grant should stay flat as the cluster grows, where
the full-scan scheduler's grows linearly with machine count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: The baseline cell the gate replays (must exist in the bench file).
GATE_SIZE = 256
GATE_SEED = 2

#: Cluster sizes the pin covers (the control-plane scaling range).
PIN_SIZES = (64, 128, 256, 512, 1024)

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "BENCH_broker.json"

#: Counters compared exactly between a run and the pin (all deterministic
#: for a given scheduler mode).
EXACT_FIELDS = (
    "events_processed",
    "grants",
    "policy_decisions",
    "sched_passes",
    "machines_scanned",
    "sweep_scans",
    "daemon_full_reports",
    "daemon_beacons",
    "daemon_report_bytes",
)


def _counter(cell: dict, name: str) -> int:
    entry = cell["result"]["metrics"].get(name, {})
    return int(entry.get("value", 0))


def measure(size: int, seed: int, sim_minutes: float) -> dict:
    """One churn cell reduced to the broker's control-plane envelope."""
    from repro.experiments.sweep import run_cell

    cell = run_cell("churn", size, seed=seed, sim_minutes=sim_minutes)
    wall = cell["perf"]["wall_seconds"]
    grants = cell["result"]["grants"]
    decisions = _counter(cell, "broker.policy_decisions")
    scanned = cell["result"]["broker"]["machines_scanned"]
    return {
        "events_processed": cell["result"]["heap"]["processed"],
        "grants": grants,
        "policy_decisions": decisions,
        "sched_passes": _counter(cell, "broker.sched_passes"),
        "machines_scanned": scanned,
        "scans_per_grant": round(scanned / max(grants, 1), 2),
        "sweep_scans": _counter(cell, "broker.sweep_scans"),
        "daemon_full_reports": _counter(cell, "rbdaemon.full_reports"),
        "daemon_beacons": _counter(cell, "rbdaemon.beacons"),
        "daemon_report_bytes": _counter(cell, "rbdaemon.report_bytes"),
        "decisions_per_second": round(decisions / max(wall, 1e-9)),
    }


def pin(sim_minutes: float) -> int:
    sizes = {}
    for size in PIN_SIZES:
        entry = measure(size, GATE_SEED, sim_minutes)
        sizes[str(size)] = entry
        print(
            f"pin: {size:4d} machines: {entry['policy_decisions']} decisions, "
            f"{entry['scans_per_grant']:.2f} scans/grant, "
            f"{entry['decisions_per_second']} decisions/s"
        )
    document = {
        "workload": "churn",
        "seed": GATE_SEED,
        "sim_minutes": sim_minutes,
        "sizes": sizes,
    }
    BASELINE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"pin: wrote {BASELINE}")
    return 0


def gate() -> int:
    baseline = json.loads(BASELINE.read_text())
    pinned = baseline["sizes"][str(GATE_SIZE)]
    tolerance = float(os.environ.get("REPRO_BROKER_TOLERANCE", "0.20"))

    entry = measure(GATE_SIZE, baseline["seed"], baseline["sim_minutes"])
    print(
        f"broker: {GATE_SIZE} machines x {baseline['sim_minutes']:g} sim-min: "
        f"{entry['policy_decisions']} decisions, "
        f"{entry['scans_per_grant']:.2f} scans/grant, "
        f"{entry['decisions_per_second']} decisions/s "
        f"(baseline {pinned['decisions_per_second']}, "
        f"tolerance {tolerance:.0%})"
    )

    failures = []
    for field in EXACT_FIELDS:
        if entry[field] != pinned[field]:
            failures.append(
                f"{field} drifted: {entry[field]} != baseline "
                f"{pinned[field]} (broker behaviour changed; rerun with "
                f"--pin if intentional)"
            )
    floor = pinned["decisions_per_second"] * (1.0 - tolerance)
    if entry["decisions_per_second"] < floor:
        failures.append(
            f"decisions/sec regression: {entry['decisions_per_second']} is "
            f"more than {tolerance:.0%} below baseline "
            f"{pinned['decisions_per_second']}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("broker: OK")
    return 1 if failures else 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pin",
        action="store_true",
        help=f"regenerate {BASELINE.name} instead of gating against it",
    )
    parser.add_argument(
        "--minutes",
        type=float,
        default=10.0,
        help="simulated minutes per cell when pinning (default 10)",
    )
    args = parser.parse_args()
    if args.pin:
        return pin(args.minutes)
    return gate()


if __name__ == "__main__":
    sys.exit(main())
