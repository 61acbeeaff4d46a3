"""Unit tests for the write-ahead journal (``repro.broker.journal``).

These exercise the journal standalone — a bare :class:`Filesystem` and a
fake clock, no cluster — covering frame parsing, write-through vs coalesced
recording, disk stalls, torn writes, compaction, and generation pruning.
Cluster-level recovery lives in ``test_journal_recovery.py``.
"""

import pytest

from repro.broker.journal import BrokerJournal, parse_frames, snapshot_state
from repro.broker.state import BrokerState
from repro.obs import MetricsRegistry
from repro.os.filesystem import Filesystem
from repro.sim import Environment


class Clock:
    """A manually-advanced simulated clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_journal(**kwargs):
    clock = Clock()
    journal = BrokerJournal(Filesystem(), clock, **kwargs)
    return journal, clock


def wal(journal):
    return journal.fs.read(journal._wal_path(journal.generation))


# -- framing -----------------------------------------------------------------


def test_records_roundtrip_through_frames():
    journal, _ = make_journal()
    ops = [{"op": "epoch", "epoch": 1, "first_jobid": 1}, {"op": "release", "host": "n01"}]
    for op in ops:
        journal.record(op)
    payloads, torn, corrupt = parse_frames(wal(journal))
    assert torn == 0 and corrupt == 0
    assert [p for p in payloads] == [
        '{"epoch":1,"first_jobid":1,"op":"epoch"}',
        '{"host":"n01","op":"release"}',
    ]


def test_torn_tail_stops_parsing_before_the_bad_frame():
    journal, _ = make_journal()
    journal.record({"op": "release", "host": "n01"})
    journal.record({"op": "release", "host": "n02"})
    data = wal(journal)
    # Any partial cut of the final frame is a torn tail; the prefix survives.
    payloads, torn, corrupt = parse_frames(data[:-5])
    assert torn == 1 and corrupt == 0
    assert payloads == ['{"host":"n01","op":"release"}']


def test_corrupt_crc_stops_parsing():
    journal, _ = make_journal()
    journal.record({"op": "release", "host": "n01"})
    journal.record({"op": "release", "host": "n02"})
    data = wal(journal)
    # Flip one payload character of the FIRST record: its CRC no longer
    # matches, and nothing after it can be trusted either.
    pos = data.index("n01")
    bad = data[:pos] + "nXX" + data[pos + 3 :]
    payloads, torn, corrupt = parse_frames(bad)
    assert payloads == []
    assert corrupt == 1


def test_garbage_header_counts_as_corrupt():
    payloads, torn, corrupt = parse_frames("not a journal at all" * 2)
    assert payloads == [] and corrupt == 1


# -- recording, stalls, tears ------------------------------------------------


def test_structural_records_are_write_through():
    journal, _ = make_journal()
    journal.record({"op": "release", "host": "n01"})
    assert journal.pending_ops() == 0
    assert journal.flushes == 1
    assert "n01" in wal(journal)


def test_coalesced_notes_wait_for_a_flush():
    journal, clock = make_journal()
    journal.note_lease("n01", 30.0)
    journal.note_lease("n01", 45.0)  # coalesces: only the latest survives
    assert journal.pending_ops() == 1
    clock.now = 2.0
    assert journal.flush_lag(clock()) == pytest.approx(2.0)
    journal.flush()
    assert journal.pending_ops() == 0
    assert journal.flush_lag(clock()) == 0.0
    payloads, _, _ = parse_frames(wal(journal))
    assert payloads == ['{"leases":{"n01":45.0},"op":"leases"}']


def test_disk_stall_defers_flushes_until_it_passes():
    journal, clock = make_journal()
    journal.stall(10.0)
    journal.record({"op": "release", "host": "n01"})
    # Accepted but not durable: the op sits in the cache, lag builds.
    assert not journal.fs.exists(journal._wal_path(journal.generation))
    assert journal.pending_ops() == 1
    clock.now = 5.0
    assert not journal.flush()
    assert journal.flush_lag(clock()) == pytest.approx(5.0)
    clock.now = 10.5
    assert journal.flush()
    assert journal.pending_ops() == 0
    assert "n01" in wal(journal)


def test_discard_unflushed_models_process_death():
    journal, _ = make_journal()
    journal.stall(10.0)
    journal.record({"op": "release", "host": "n01"})
    journal.discard_unflushed()
    assert journal.pending_ops() == 0
    assert not journal.fs.exists(journal._wal_path(journal.generation))
    # The stall dies with the process too: the next incarnation writes.
    journal.record({"op": "release", "host": "n02"})
    assert "n02" in wal(journal)


def test_tear_truncates_the_wal_tail():
    journal, _ = make_journal()
    journal.record({"op": "release", "host": "n01"})
    before = wal(journal)
    assert journal.tear(5) == 5
    assert wal(journal) == before[:-5]
    payloads, torn, _ = parse_frames(wal(journal))
    assert payloads == [] and torn == 1
    # A tear larger than the file just empties it.
    assert journal.tear(10_000) == len(before) - 5


# -- compaction and generations ----------------------------------------------


def attach_small_state(journal):
    state = BrokerState()
    for i in range(3):
        state.add_machine(f"n{i:02d}")
    journal.attach(state, epoch=1)
    return state


def test_compaction_rolls_generations_and_prunes_old_ones():
    journal, _ = make_journal(compact_bytes=256, keep_generations=2)
    state = attach_small_state(journal)
    job = state.register_job("u", "n00", "", ["compute", "5"])
    for i in range(40):
        state.allocate("n01", job.jobid, firm=True, now=float(i), lease_expires_at=float(i) + 30.0)
        state.release("n01")
    assert journal.compactions >= 1
    generations = journal._generations()
    assert generations[-1] == journal.generation
    # Bounded disk: at most keep_generations generations survive.
    assert len(generations) <= 2
    # Each kept generation is one snapshot plus a WAL that can overshoot
    # compact_bytes by at most one flush; disk stays near that constant no
    # matter how long the op stream runs.
    snap_len = len(journal.fs.read(journal._snap_path(journal.generation)))
    assert journal.total_bytes() <= 2 * (256 + snap_len) + 512
    # The rolled journal still recovers the full durable contract.
    recovered, info = journal.load_state()
    assert info.snapshot_used
    assert snapshot_state(recovered) == snapshot_state(state)


def test_bytes_gauge_tracks_the_disk_without_rescanning_it():
    """``journal.bytes`` is a running total: flushes add to it, compaction,
    pruning and ``tear`` recount — after each it equals the files' sizes."""
    env = Environment()
    journal = BrokerJournal(
        Filesystem(), lambda: env.now, metrics=MetricsRegistry(env),
        compact_bytes=256, keep_generations=2,
    )
    gauge = journal.metrics.gauge("journal.bytes")
    state = attach_small_state(journal)
    job = state.register_job("u", "n00", "", ["compute", "5"])
    for i in range(40):
        state.allocate("n01", job.jobid, firm=True, now=float(i), lease_expires_at=float(i) + 30.0)
        assert gauge.value == journal.total_bytes()
        state.release("n01")
        assert gauge.value == journal.total_bytes()
        if i % 7 == 3:
            journal.tear(5)
            journal.record({"op": "release", "host": "n02"})
            assert gauge.value == journal.total_bytes()
    assert journal.compactions >= 2
    # A successor on the same disk starts from what is there.
    successor = BrokerJournal(journal.fs, lambda: env.now)
    assert successor._disk_bytes == journal.total_bytes() > 0


def test_new_journal_resumes_the_highest_generation_on_disk():
    journal, clock = make_journal(compact_bytes=128)
    state = attach_small_state(journal)
    job = state.register_job("u", "n00", "", ["compute", "5"])
    for i in range(20):
        state.allocate("n02", job.jobid, firm=False, now=float(i))
        state.release("n02")
    assert journal.generation >= 1
    successor = BrokerJournal(journal.fs, clock)
    assert successor.generation == journal.generation
    recovered, _ = successor.load_state()
    assert snapshot_state(recovered) == snapshot_state(state)


def test_load_state_on_an_empty_directory_returns_none():
    journal, _ = make_journal()
    assert journal.load_state() is None


def test_stats_surface_generation_lag_and_stall():
    journal, clock = make_journal()
    journal.record({"op": "release", "host": "n01"})
    stats = journal.stats()
    assert stats["enabled"] is True
    assert stats["records"] == 1
    assert stats["flushes"] == 1
    assert stats["stalled"] is False
    journal.stall(10.0)
    journal.note_lease("n01", 60.0)
    clock.now = 3.0
    stats = journal.stats()
    assert stats["stalled"] is True
    assert stats["pending_ops"] == 1
    assert stats["flush_lag"] == pytest.approx(3.0)
