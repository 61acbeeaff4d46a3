"""Journal-backed broker recovery: snapshot+replay, corruption, fallback.

PR-4's restart tests prove re-registration alone can rebuild the broker;
these prove the journalled broker recovers *from disk* — instantly, across
torn tails and corrupt records, falling back a snapshot generation when it
must — and that daemon re-registration then reconciles rather than rebuilds.
An empty journal directory degrades to exactly the PR-4 behaviour.
"""

from tests.broker.conftest import install_greedy


def _running_greedy(cluster, width=2):
    svc = cluster.broker
    install_greedy(cluster)
    handle = svc.submit("n00", ["greedy", str(width)], rsl="+(adaptive)")
    cluster.env.run(until=cluster.now + 5.0)
    job = handle.job_record()
    assert len(svc.holdings()[job.jobid]) == width
    return svc, handle, job


def _crash_restart(cluster, svc, downtime=2.0):
    svc.crash_broker()
    cluster.env.run(until=cluster.now + downtime)
    svc.restart_broker()
    svc.wait_ready()


def test_recovery_comes_from_the_journal_not_reregistration(jcluster4):
    svc, handle, job = _running_greedy(jcluster4)
    held_before = svc.holdings()[job.jobid]
    _crash_restart(jcluster4, svc)

    # State is whole the instant the new incarnation boots: holdings are
    # visible BEFORE any daemon has had a chance to re-register.
    assert svc.holdings()[job.jobid] == held_before
    assert svc.metrics.counter("recovery.from_journal").value == 1
    assert svc.metrics.counter("recovery.from_reregistration").value == 0
    assert svc.metrics.counter("recovery.replayed_records").value > 0
    assert svc.metrics.gauge("recovery.latency_seconds").value == 0.0
    events = svc.events_of("recovery")
    assert events and events[-1]["source"] == "journal"

    # ... and the picture still holds once re-registration cross-checks it.
    jcluster4.env.run(until=jcluster4.now + 15.0)
    assert svc.holdings()[job.jobid] == held_before
    assert handle.proc.is_alive
    jcluster4.assert_no_crashes()


def test_recovered_epoch_is_strictly_higher_than_the_journalled_one(jcluster4):
    svc, _, _ = _running_greedy(jcluster4)
    _crash_restart(jcluster4, svc)
    assert svc.epoch == 2
    _crash_restart(jcluster4, svc)
    assert svc.epoch == 3
    jcluster4.env.run(until=jcluster4.now + 10.0)
    jcluster4.assert_no_crashes()


def test_torn_tail_is_tolerated(jcluster4):
    svc, handle, job = _running_greedy(jcluster4)
    held_before = svc.holdings()[job.jobid]
    # A crash mid-write: the WAL's final frame is incomplete.
    assert svc.journal.tear(5) == 5
    _crash_restart(jcluster4, svc)

    assert svc.metrics.counter("recovery.from_journal").value == 1
    assert svc.metrics.counter("recovery.torn_tails").value == 1
    jcluster4.env.run(until=jcluster4.now + 15.0)
    # Whatever the torn record would have said, reconciliation against the
    # live daemons settles it: same holdings, nothing double-booked.
    assert svc.holdings()[job.jobid] == held_before
    assert handle.proc.is_alive
    jcluster4.assert_no_crashes()


def test_corrupt_record_mid_file_stops_replay_but_not_recovery(jcluster4):
    svc, handle, job = _running_greedy(jcluster4)
    held_before = svc.holdings()[job.jobid]
    journal = svc.journal
    path = journal._wal_path(journal.generation)
    data = journal.fs.read(path)
    # Flip one character inside a payload near the middle of the WAL: a
    # full-length frame with a bad CRC — everything after it is untrusted.
    pos = data.index('"op"', len(data) // 2)
    journal.fs.write(path, data[:pos] + "!xp!" + data[pos + 4 :])
    _crash_restart(jcluster4, svc)

    assert svc.metrics.counter("recovery.from_journal").value == 1
    assert svc.metrics.counter("recovery.corrupt_records").value >= 1
    jcluster4.env.run(until=jcluster4.now + 15.0)
    assert svc.holdings()[job.jobid] == held_before
    held = [h for hosts in svc.holdings().values() for h in hosts]
    assert len(held) == len(set(held))
    assert handle.proc.is_alive
    jcluster4.assert_no_crashes()


def test_corrupt_snapshot_falls_back_one_generation(jcluster4):
    svc, handle, job = _running_greedy(jcluster4)
    held_before = svc.holdings()[job.jobid]
    journal = svc.journal
    # Force a compaction so a fresh snapshot generation exists, then ruin it.
    journal.compact_bytes = 1
    journal.record({"op": "noop"})
    top = journal.generation
    assert top >= 1
    journal.fs.write(journal._snap_path(top), "garbage snapshot")
    _crash_restart(jcluster4, svc)

    # Recovery used generation top-1 and replayed forward through top's WAL.
    assert svc.metrics.counter("recovery.from_journal").value == 1
    assert svc.metrics.counter("recovery.snapshot_fallbacks").value == 1
    assert svc.holdings()[job.jobid] == held_before
    jcluster4.env.run(until=jcluster4.now + 15.0)
    assert svc.holdings()[job.jobid] == held_before
    assert handle.proc.is_alive
    jcluster4.assert_no_crashes()


def test_empty_journal_directory_degrades_to_reregistration(jcluster4):
    svc, handle, job = _running_greedy(jcluster4)
    held_before = svc.holdings()[job.jobid]
    journal = svc.journal
    prefix = journal.directory + "/"
    for path in list(journal.fs.listdir()):
        if path.startswith(prefix):
            journal.fs.unlink(path)
    _crash_restart(jcluster4, svc)

    # Nothing on disk: exactly the PR-4 path — blank state, rebuilt from
    # daemon re-registration and session resumption.
    assert svc.metrics.counter("recovery.from_journal").value == 0
    assert svc.metrics.counter("recovery.from_reregistration").value == 1
    events = svc.events_of("recovery")
    assert events and events[-1]["source"] == "reregistration"
    jcluster4.env.run(until=jcluster4.now + 15.0)
    assert svc.holdings()[job.jobid] == held_before
    assert svc.metrics.counter("sessions.resumed").value >= 1
    assert handle.proc.is_alive
    jcluster4.assert_no_crashes()


def test_daemon_death_in_the_same_fault_window_leaves_nothing_stuck(
    jcluster4, frees
):
    """A worker machine dies in the same window as the broker: the journal
    re-animates a lease whose daemon will never confirm it.  The resuming
    app no longer claims the machine, so the allocation is dropped as
    stale, the adaptive job replaces the machine, and no allocation is
    left pointing anywhere stale."""
    svc, handle, job = _running_greedy(jcluster4, width=2)
    victim = svc.holdings()[job.jobid][-1]
    jcluster4.crash_machine(victim, reboot_after=40.0)
    svc.crash_broker()
    jcluster4.env.run(until=jcluster4.now + 2.0)
    svc.restart_broker()
    svc.wait_ready()

    # Journal recovery resurrects the victim's allocation (recovered=True,
    # lease one TTL out); the daemon is dead, so it expires instead of being
    # confirmed.  Give it: downtime + TTL + replacement time.
    ttl = jcluster4.network.calibration.lease_ttl
    jcluster4.env.run(until=jcluster4.now + 2.5 * ttl + 10.0)

    holdings = svc.holdings()[job.jobid]
    assert len(holdings) == 2
    held = [h for hosts in svc.holdings().values() for h in hosts]
    assert len(held) == len(set(held))
    # Nothing is allocated on a machine whose daemon has not reported in.
    for host in held:
        assert svc.state.machines[host].reported
    assert handle.proc.is_alive
    assert svc.metrics.counter("recovery.from_journal").value == 1
    dropped = svc.events_of("stale_allocation_dropped")
    assert [(e["host"], e["jobid"]) for e in dropped] == [(victim, job.jobid)]
    (freed,) = [f for f in frees if f.host == victim]
    assert freed.outcome == "stale_allocation_dropped"
    freed.assert_clean(spanned=False)
    jcluster4.assert_no_crashes()


def test_recovery_conflicts_resolve_toward_live_inventory(jcluster4):
    """A grant that died unflushed (disk stall) is re-adopted from the
    daemon's inventory; a journalled lease whose job vanished is flagged and
    expired.  Either direction counts a ``recovery.conflict`` and the live
    periphery wins."""
    svc, handle, job = _running_greedy(jcluster4)
    # Stall the disk, then force new journal activity that will be lost.
    svc.journal.stall(30.0)
    svc.state.release(svc.holdings()[job.jobid][-1])  # journalled op, unflushed
    svc.crash_broker()
    jcluster4.env.run(until=jcluster4.now + 2.0)
    svc.restart_broker()
    svc.wait_ready()
    jcluster4.env.run(until=jcluster4.now + 20.0)

    # The journal's stale picture (machine still held) was reconciled; the
    # adaptive job is whole again and nothing is double-booked.
    assert len(svc.holdings()[job.jobid]) == 2
    held = [h for hosts in svc.holdings().values() for h in hosts]
    assert len(held) == len(set(held))
    assert handle.proc.is_alive
    jcluster4.assert_no_crashes()
