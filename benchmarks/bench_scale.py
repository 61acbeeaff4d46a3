"""Simulator scalability: what each simulated cluster size costs.

Not a paper artefact: it prints the wall cost of 10 simulated minutes of the
churning cell (:mod:`repro.experiments.sweep`) from 8 to 4096 machines, and
asserts only what is exact — the lazy-deletion heap's high-water mark tracks
the live population, not total event churn.  Wall time is printed, never
gated: a performance claim is ``make bench-pairs`` (rbbench).
"""

from repro.experiments.sweep import run_cell

SIZES = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def bench_simulator_scalability(run_once):
    cells = run_once(
        lambda: {n: run_cell("churn", n, seed=2, sim_minutes=10.0) for n in SIZES}
    )
    print("\n10 simulated minutes of churning cluster:")
    for n, cell in cells.items():
        perf, heap = cell["perf"], cell["result"]["heap"]
        print(
            f"  {n:4d} machines -> {perf['wall_seconds']:6.2f}s wall "
            f"{perf['events_per_second']:8.0f} ev/s "
            f"{heap['processed']:8d} events, "
            f"heap high-water {heap['heap_high_water']:5d}"
        )
    for n in (256, 1024, 4096):
        assert cells[n]["result"]["heap"]["heap_high_water"] < 50 * n
