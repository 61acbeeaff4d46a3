"""Observability-cost gate against the pinned ``BENCH_obs.json``.

Run as a script (``make bench-obs``).  Two modes:

* **Gate** (default) — replay the pinned 256-machine churn cell once per
  config — ``full`` (exact metrics, every span kept), ``bounded`` (ring
  buffers and digests, every span kept) and ``off`` (running values only,
  all spans sampled out) — and check statements that are exact on any
  hardware:

  - *Isolation*: ``events_processed`` must be identical in every config
    and equal to the pin.  The telemetry layer is bookkeeping on the side
    of the simulation — if turning it down changes the event count, it
    leaked into simulated behaviour and the determinism story is broken.
  - *Cost*: the registry's ``updates`` and retained ``series_points`` per
    config must equal the pin, and are printed per kernel event.  Updates
    are what every metric write costs and do not depend on the mode;
    series points are what the mode keeps (exact mode: one point per
    distinct instant per counter/gauge, plus every histogram observation).
  - *Bounded memory*: a ``bounded``-mode registry fed 10k churning updates
    must retain no more than ``instruments x capacity`` series points
    (flat memory for any run length), while ``exact`` mode retains all.

* **Pin** (``--pin``) — run every config and rewrite ``BENCH_obs.json``.

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

#: Observability configurations, applied via the public environment knobs.
CONFIGS = {
    "full": {"RB_METRICS_MODE": "exact", "RB_TRACE_SAMPLE": "1.0"},
    "bounded": {"RB_METRICS_MODE": "bounded", "RB_TRACE_SAMPLE": "1.0"},
    "off": {"RB_METRICS_MODE": "off", "RB_TRACE_SAMPLE": "0.0"},
}

#: The pinned fields of each config; every one is a deterministic integer.
PINNED = ("events_processed", "spans", "grants", "updates", "series_points")

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
    result = cell["result"]
    return {
        "events_processed": result["heap"]["processed"],
        "spans": result["spans"],
        "grants": result["grants"],
        "updates": result["obs"]["updates"],
        "series_points": result["obs"]["series_points"],
    }


def run_all(size: int, seed: int, sim_minutes: float) -> dict:
    configs = {name: run_config(name, size, seed, sim_minutes) for name in CONFIGS}
    for name, entry in configs.items():
        events = entry["events_processed"]
        print(
            f"obs: {name:>8}: events={events} spans={entry['spans']} "
            f"updates={entry['updates']} ({entry['updates'] / events:.4f}/event) "
            f"series_points={entry['series_points']} "
            f"({entry['series_points'] / events:.4f}/event)"
        )
    return configs


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
    # One write per instrument per instant: exact mode keeps every one.
    if exact.series_points() != 3 * updates:
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
    document = {
        "workload": "churn",
        "machines": GATE_SIZE,
        "seed": GATE_SEED,
        "sim_minutes": sim_minutes,
        "configs": run_all(GATE_SIZE, GATE_SEED, sim_minutes),
    }
    BASELINE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"pin: wrote {BASELINE}")
    return 0


def gate() -> int:
    baseline = json.loads(BASELINE.read_text())
    configs = run_all(GATE_SIZE, baseline["seed"], baseline["sim_minutes"])

    failures = []
    events = {name: entry["events_processed"] for name, entry in configs.items()}
    if len(set(events.values())) != 1:
        failures.append(
            f"observability leaked into the simulation: events_processed {events}"
        )
    for name, entry in configs.items():
        pinned = baseline["configs"][name]
        for field in PINNED:
            if entry[field] != pinned[field]:
                failures.append(
                    f"{name}: {field} {entry[field]} != baseline "
                    f"{pinned[field]} (rerun with --pin if intentional)"
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
