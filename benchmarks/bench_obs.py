"""Observability-overhead gate against the pinned ``BENCH_obs.json``.

Run as a script (``make bench-obs``).  Two modes:

* **Gate** (default) — replay the pinned 256-machine churn cell with full
  observability (exact metrics, every span kept) and with observability
  floored (``off`` metrics, all spans sampled out), then check:

  - *Isolation*: ``events_processed`` must be identical in both runs and
    equal to the pin.  The telemetry layer is bookkeeping on the side of
    the simulation — if turning it off changes the event count, it leaked
    into simulated behaviour and the determinism story is broken.
  - *Overhead*: full-observability wall-clock may exceed the obs-off floor
    by at most ``REPRO_OBS_TOLERANCE`` (default 0.10, i.e. tracing plus
    metrics together must cost under 10%).  Both sides are best-of-N on
    this machine, so the ratio is hardware-independent enough to gate on.
  - *Bounded memory*: a ``bounded``-mode registry fed 10k churning updates
    must retain no more than ``instruments x capacity`` series points
    (flat memory for any run length), while ``exact`` mode retains all.

* **Pin** (``--pin``) — measure every config (full, bounded, sampled, off)
  and rewrite ``BENCH_obs.json`` with walls and overhead ratios.

Configs are applied through the same environment variables users have
(``RB_METRICS_MODE``, ``RB_TRACE_SAMPLE``), set around an in-process
:func:`repro.experiments.sweep.run_cell` — the benchmark exercises exactly
the production wiring, not a special hook.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: The baseline cell the gate replays (matches the broker gate's cell).
GATE_SIZE = 256
GATE_SEED = 2

#: Best-of-N wall measurements per config (walls are noisy; mins are not).
#: Seven since the cell takes about a second (it took three while every
#: worker ticked once a simulated second): the same ~15 s of gate, and a
#: minimum that host noise — now a larger share of each run — moves less.
REPEATS = 7

#: Observability configurations, applied via the public environment knobs.
CONFIGS = {
    "full": {"RB_METRICS_MODE": "exact", "RB_TRACE_SAMPLE": "1.0"},
    "bounded": {"RB_METRICS_MODE": "bounded", "RB_TRACE_SAMPLE": "1.0"},
    "sampled": {"RB_METRICS_MODE": "bounded", "RB_TRACE_SAMPLE": "0.1"},
    "off": {"RB_METRICS_MODE": "off", "RB_TRACE_SAMPLE": "0.0"},
}

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "BENCH_obs.json"


def run_config(config: str, size: int, seed: int, sim_minutes: float) -> dict:
    """One churn cell under ``config``, reduced to the obs envelope."""
    from repro.experiments.sweep import run_cell

    overrides = CONFIGS[config]
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        cell = run_cell("churn", size, seed=seed, sim_minutes=sim_minutes)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return {
        "events_processed": cell["result"]["heap"]["processed"],
        "spans": cell["result"]["spans"],
        "grants": cell["result"]["grants"],
        "events_per_second": round(cell["perf"]["events_per_second"]),
        "wall_seconds": round(cell["perf"]["wall_seconds"], 4),
    }


def measure_all(names, size: int, seed: int, sim_minutes: float) -> dict:
    """Best-of-``REPEATS`` walls per config, with configs *interleaved*.

    Round-robin rather than block-per-config: machine noise drifts over
    seconds, and the gate is a ratio between configs, so both sides must
    sample the same noise regime.  Deterministic fields are identical
    across repeats; only the wall/throughput of the fastest run is kept.
    """
    best: dict = {}
    for _ in range(REPEATS):
        for name in names:
            entry = run_config(name, size, seed, sim_minutes)
            kept = best.get(name)
            if kept is None or entry["wall_seconds"] < kept["wall_seconds"]:
                best[name] = entry
    return best


def check_bounded_memory() -> list:
    """Bounded-mode registries must stay flat under unbounded churn."""
    from types import SimpleNamespace

    from repro.obs.metrics import MetricsRegistry

    failures = []
    clock = SimpleNamespace(now=0.0)
    capacity = 128
    bounded = MetricsRegistry(clock, mode="bounded", series_capacity=capacity)
    exact = MetricsRegistry(clock, mode="exact")
    updates = 10_000
    for i in range(updates):
        clock.now = float(i)
        for registry in (bounded, exact):
            registry.counter("churn.submits").inc()
            registry.gauge("churn.queue").set(i % 7)
            registry.histogram("churn.wait").observe(0.001 + (i % 100) / 10.0)
    ceiling = len(bounded.all_metrics()) * capacity
    retained = bounded.series_points()
    if retained > ceiling:
        failures.append(
            f"bounded registry retained {retained} series points after "
            f"{updates} updates; ceiling is instruments x capacity = {ceiling}"
        )
    if exact.series_points() < updates:
        failures.append(
            "exact registry lost samples; the bounded check is not "
            "measuring what it thinks it is"
        )
    wait = bounded.histogram("churn.wait")
    if wait.count != updates or wait.percentile(0.95) <= 0.0:
        failures.append(
            "bounded histogram lost its running aggregates or digest"
        )
    print(
        f"obs: bounded memory: {retained} points retained after {updates} "
        f"updates (ceiling {ceiling}); exact retains {exact.series_points()}"
    )
    return failures


def pin(sim_minutes: float) -> int:
    configs = measure_all(tuple(CONFIGS), GATE_SIZE, GATE_SEED, sim_minutes)
    for name, entry in configs.items():
        print(
            f"pin: {name:>8}: wall={entry['wall_seconds']:.3f}s "
            f"events={entry['events_processed']} spans={entry['spans']} "
            f"({entry['events_per_second']} ev/s)"
        )
    floor = configs["off"]["wall_seconds"]
    overhead = {
        name: round(entry["wall_seconds"] / max(floor, 1e-9) - 1.0, 4)
        for name, entry in configs.items()
        if name != "off"
    }
    for name, ratio in overhead.items():
        print(f"pin: {name} overhead vs off: {ratio:+.1%}")
    document = {
        "workload": "churn",
        "machines": GATE_SIZE,
        "seed": GATE_SEED,
        "sim_minutes": sim_minutes,
        "configs": configs,
        "overhead_vs_off": overhead,
    }
    BASELINE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"pin: wrote {BASELINE}")
    return 0


def gate() -> int:
    baseline = json.loads(BASELINE.read_text())
    tolerance = float(os.environ.get("REPRO_OBS_TOLERANCE", "0.10"))
    minutes = baseline["sim_minutes"]

    best = measure_all(("full", "off"), GATE_SIZE, baseline["seed"], minutes)
    full, off = best["full"], best["off"]
    overhead = full["wall_seconds"] / max(off["wall_seconds"], 1e-9) - 1.0
    print(
        f"obs: {GATE_SIZE} machines x {minutes:g} sim-min: "
        f"full={full['wall_seconds']:.3f}s off={off['wall_seconds']:.3f}s "
        f"overhead {overhead:+.1%} (tolerance {tolerance:.0%})"
    )

    failures = []
    pinned_events = baseline["configs"]["off"]["events_processed"]
    if full["events_processed"] != off["events_processed"]:
        failures.append(
            f"observability leaked into the simulation: "
            f"{full['events_processed']} events with obs on vs "
            f"{off['events_processed']} with obs off"
        )
    if off["events_processed"] != pinned_events:
        failures.append(
            f"events_processed drifted: {off['events_processed']} != "
            f"baseline {pinned_events} (simulation behaviour changed; "
            f"rerun with --pin if intentional)"
        )
    if overhead > tolerance:
        failures.append(
            f"obs overhead regression: full observability costs "
            f"{overhead:+.1%} over the obs-off floor (budget {tolerance:.0%})"
        )
    failures.extend(check_bounded_memory())
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("obs: OK")
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
