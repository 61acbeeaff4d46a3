"""The chaos experiment: jobs complete despite crashes and partitions."""

from repro.experiments import run_chaos


def test_small_chaos_run_completes_every_job():
    table = run_chaos(seed=1)
    assert table.meta["completed"] == table.meta["jobs"] == 4
    assert table.meta["faults_injected"] == len(table.meta["plan"].splitlines())
    rendered = str(table)
    assert "machine crashes injected" in rendered
    assert "jobs completed" in rendered


def test_chaos_with_broker_crash_completes_every_job():
    """The full acceptance scenario: machine crashes, a partition, *and* a
    broker SIGKILL + restart — every job still completes, and no machine is
    left allocated (every lease was re-adopted or reclaimed)."""
    table = run_chaos(seed=1, broker_crashes=1)
    assert table.meta["completed"] == table.meta["jobs"]
    assert table.meta["stuck_allocations"] == 0
    rendered = str(table)
    assert "broker crashes injected" in rendered
    assert "sessions resumed" in rendered
    rows = {row.label: row.values[0] for row in table.rows}
    assert rows["broker crashes injected"] == 1
    assert rows["broker restarts"] >= 1
    assert rows["daemon re-registrations"] >= 1


def test_chaos_detects_and_recovers():
    """At least one crash outlives the liveness deadline, so the broker must
    have marked a machine dead; reboots mean it also saw rejoins."""
    table = run_chaos(seed=1)
    rows = {row.label: row.values[0] for row in table.rows}
    assert rows["machines declared dead"] >= 1
    assert rows["machine rejoins"] >= 1
    assert rows["jobs completed"] == table.meta["completed"]
