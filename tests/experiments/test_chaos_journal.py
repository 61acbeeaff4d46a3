"""Journaled chaos: ``run_chaos(journal=True)``, the ``journal`` scenario of
``python -m repro chaos``.

The chaos experiment with the durable broker adds journal-specific faults
(torn writes, disk stalls) and recovery rows to the table; same seed must
still mean byte-identical output.
"""

from repro.experiments import run_chaos


def _rows(table):
    return {row.label: row.values[0] for row in table.rows}


def test_journaled_chaos_completes_and_recovers_from_disk():
    table = run_chaos(seed=1, journal=True)
    assert table.meta["completed"] == table.meta["jobs"]
    assert table.meta["stuck_allocations"] == 0
    assert table.meta["journal"] is True
    rows = _rows(table)
    assert rows["broker crashes injected"] >= 1
    assert rows["journal torn writes injected"] >= 1
    assert rows["disk stalls injected"] >= 1
    assert rows["recoveries from journal"] >= 1
    assert rows["recoveries from re-registration"] == 0
    assert rows["journal records replayed"] > 0
    rendered = str(table)
    assert "recoveries from journal" in rendered


def test_unjournaled_chaos_has_no_journal_rows():
    table = run_chaos(seed=1)
    assert table.meta.get("journal") is False
    assert "recoveries from journal" not in str(table)


def test_journaled_chaos_same_seed_is_byte_identical():
    a = str(run_chaos(seed=4, journal=True))
    b = str(run_chaos(seed=4, journal=True))
    assert a == b


def test_journal_faults_change_nothing_about_job_outcomes(checked):
    """Durability faults are broker-side only: every job still completes."""
    table = run_chaos(seed=9, journal=True, broker_crashes=2)
    assert table.meta["completed"] == table.meta["jobs"]
    assert table.meta["stuck_allocations"] == 0
    rows = _rows(table)
    assert rows["broker crashes injected"] == 2
    assert rows["recoveries from journal"] == 2
    assert checked.settled() is None


def test_pending_gauge_counts_the_recovered_queue(checked):
    """``broker.pending_requests`` is the pending queue's length, across a
    journal recovery too: the recovered queue replaces the dead one's in
    the count.  Seed 5 recovers queued requests, and a gauge that kept
    counting the dead incarnation's ended at -2."""
    run_chaos(seed=5, journal=True, broker_crashes=1)
    cluster = checked.oracles[0].cluster
    state = cluster.broker.state
    gauge = cluster.network.metrics.gauge("broker.pending_requests")
    assert cluster.broker.metrics.counter("recovery.from_journal").value >= 1
    assert gauge.value == len(state.pending)
