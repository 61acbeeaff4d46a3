"""Kernel-performance smoke gate against the pinned ``BENCH_kernel.json``.

Run as a script (``make bench-smoke``).  Two checks:

* **Determinism** — the smoke cell's simulation-derived facts (events
  processed, heap high-water) must match the committed baseline exactly;
  these are hardware-independent, so any mismatch means kernel behaviour
  changed and the baseline must be regenerated deliberately
  (``python -m repro sweep --sizes 8,16,32,64,128,256,512,1024,2048,4096
  --seeds 2 --minutes 10 --bench BENCH_kernel.json``, about 90 s; every
  size the file holds, or the rows left out go stale).
* **Performance** — wall-clock per simulated minute must stay within
  ``REPRO_BENCH_TOLERANCE`` (default 2.0x) of the baseline.  Wall-clock is
  machine-dependent; the generous tolerance absorbs hardware and CI-runner
  variance while still catching order-of-magnitude regressions.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

#: The baseline cell the smoke test replays (must exist in the bench file).
SMOKE_SIZE = 32
SMOKE_SEED = 2

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.experiments.sweep import run_cell

    baseline = json.loads(BASELINE.read_text())
    pinned = baseline["sizes"][str(SMOKE_SIZE)]
    tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", "2.0"))

    cell = run_cell(
        baseline["workload"],
        SMOKE_SIZE,
        seed=SMOKE_SEED,
        sim_minutes=baseline["sim_minutes"],
    )
    heap = cell["result"]["heap"]
    wall_per_min = cell["perf"]["wall_per_sim_minute"]
    print(
        f"smoke: {SMOKE_SIZE} machines x {baseline['sim_minutes']:g} sim-min: "
        f"{heap['processed']} events, high-water {heap['heap_high_water']}, "
        f"{wall_per_min:.4f}s wall per sim-minute "
        f"(baseline {pinned['wall_per_sim_minute']:.4f}s, "
        f"tolerance {tolerance:g}x)"
    )

    failures = []
    if heap["processed"] != pinned["events_processed"]:
        failures.append(
            f"events processed drifted: {heap['processed']} != baseline "
            f"{pinned['events_processed']} (kernel behaviour changed; "
            f"regenerate BENCH_kernel.json if intentional)"
        )
    if heap["heap_high_water"] != pinned["heap_high_water"]:
        failures.append(
            f"heap high-water drifted: {heap['heap_high_water']} != baseline "
            f"{pinned['heap_high_water']}"
        )
    if wall_per_min > pinned["wall_per_sim_minute"] * tolerance:
        failures.append(
            f"perf regression: {wall_per_min:.4f}s per sim-minute exceeds "
            f"{tolerance:g}x baseline {pinned['wall_per_sim_minute']:.4f}s"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("smoke: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
