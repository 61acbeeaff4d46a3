"""The service-mode soak harness (``repro.experiments.soak``).

Small traces here; the 3,000-submission run is the ``soak`` gate of
``benchmarks/gates.py`` (``make gates G=soak``), and rbbench's ``soak-12``
drives 6,000.
"""

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
    # memory, the first does not, and every deterministic field still agrees.
    b = run_soak(seed=7, machines=6, submissions=80, restarts=1,
                 memory_checkpoints=8)
    assert _deterministic_fields(a) == _deterministic_fields(b)
    assert b.memory_samples and not a.memory_samples


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
