"""Benchmark-suite configuration.

``bench_scale.py`` is the simulator scalability sweep; the paper's tables
are ``python -m repro reproduce`` and rbbench's ``paper-tables``, and our
ablations are the tier-1 ``tests/experiments/test_ablations.py``.  The
pytest-benchmark timer measures each experiment once (the simulation is
deterministic, so a single round suffices); results are printed to stdout
and asserted only where they are exact or simulated — run with ``pytest
benchmarks/ --benchmark-only -s`` to see them.
"""

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
