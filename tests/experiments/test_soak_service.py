"""The service-mode soak harness (``repro.experiments.soak``).

Small traces here; the 3,000-submission run is the ``soak`` gate of
``benchmarks/gates.py`` (``make gates G=soak``), and rbbench's ``soak-12``
drives 6,000.
"""

import gc
from collections import Counter
from types import MethodType

from repro.cluster.network import Connection
from repro.experiments import run_soak


def _deterministic_fields(report):
    return (
        report.completed,
        report.failed,
        report.grants,
        report.revocations,
        report.recoveries_from_journal,
        report.replayed_records,
        report.recovery_conflicts,
        report.journal_compactions,
        report.journal_bytes,
        report.finished_at,
    )


def test_small_soak_drains_with_a_mid_trace_restart(checked):
    report = run_soak(seed=3, machines=8, submissions=120, restarts=1)
    assert report.drained
    assert report.completed == 120
    assert report.stuck_allocations == 0
    assert report.recoveries_from_journal == 1
    assert report.replayed_records > 0
    assert report.grants >= 120
    rendered = report.render()
    assert "120 submissions" in rendered
    assert "journal" in rendered
    assert checked.settled() is None


def test_soak_is_deterministic_across_runs():
    a = run_soak(seed=7, machines=6, submissions=80, restarts=1)
    # Metering must not perturb the simulation: the second run samples
    # memory, and collects before each of its eight samples; the first
    # neither samples nor collects.  Every deterministic field still agrees.
    b = run_soak(seed=7, machines=6, submissions=80, restarts=1,
                 memory_checkpoints=8)
    assert _deterministic_fields(a) == _deterministic_fields(b)
    assert b.memory_samples and not a.memory_samples


def test_a_soak_leaves_no_connection_for_the_cyclic_collector():
    """Everything a drained soak made was freed by reference counting:
    collecting at each checkpoint, with the collector otherwise off, finds
    no ``Connection`` and none of its bound methods, and once the run has
    closed its cluster, no object at all.  300 submissions open well over
    the 1,024 connections after which the network first forgets closed
    pairs; a shorter trace still holds them all, so a cycle among them
    could not show."""
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        report = run_soak(seed=7, machines=6, submissions=300, restarts=0,
                          progress=lambda _done, _total: gc.collect())
        assert report.drained
        connections = sum(isinstance(obj, Connection) for obj in gc.garbage)
        methods = sum(
            isinstance(obj, MethodType) and isinstance(obj.__self__, Connection)
            for obj in gc.garbage
        )
        assert (connections, methods) == (0, 0)
        gc.collect()
        assert Counter(type(obj).__name__ for obj in gc.garbage) == {}
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        gc.collect()
        if was_enabled:
            gc.enable()


def test_soak_without_journal_still_drains():
    report = run_soak(seed=3, machines=6, submissions=80, restarts=1,
                      journal=False)
    assert report.drained
    assert report.stuck_allocations == 0
    assert report.recoveries_from_journal == 0
    assert report.journal_bytes == 0


def test_soak_journal_stays_bounded():
    small = run_soak(seed=11, machines=6, submissions=100, restarts=0)
    large = run_soak(seed=11, machines=6, submissions=400, restarts=0)
    assert small.drained and large.drained
    # 4x the trace must not mean 4x the disk: compaction caps the journal
    # near compact_bytes plus the retained snapshot generations.
    assert large.journal_compactions > small.journal_compactions
    assert large.journal_bytes < 2 * max(small.journal_bytes, 65536)


def test_soak_cli_runs_and_reports(capsys):
    from repro.__main__ import main

    assert main(["soak", "--submissions", "60", "--machines", "6"]) == 0
    out = capsys.readouterr().out
    assert "== soak:" in out
    assert "completed=60" in out
