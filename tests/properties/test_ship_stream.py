"""Properties of the WAL ship stream (DESIGN.md §16).

Three families:

* **Frame decoding is total** — :func:`parse_frames` is fed corrupted,
  truncated, duplicated and garbage-spliced inputs (a torn disk, a buggy
  resend, a hostile peer) and must never raise; it stops cleanly at the
  first unreadable frame, and a pure truncation decodes to an exact prefix
  of the original payloads.
* **Ship-stream equivalence** — a fake standby consuming the chunks the
  primary journal's :class:`~repro.broker.replica.ShipStream` retains
  (acking as it goes, exactly like ``rbstandby``)
  reproduces the primary's :func:`state_fingerprint` at *every* flush
  point, across compactions, for any ack cut point.  This is the invariant
  that makes a promoted standby's state trustworthy.
* **Replica persistence** — a replica rebuilt from its machine's disk holds
  what the live one held, and an unreadable snapshot re-baselines.
"""

import random
from types import SimpleNamespace

import pytest

from repro.broker import protocol
from repro.broker.journal import BrokerJournal, _frame, parse_frames
from repro.broker.recovery import (
    RecoveryInfo,
    apply_payloads,
    apply_snapshot,
    snapshot_state,
    state_fingerprint,
)
from repro.broker.replica import _DIR, ShipStream, _Replica
from repro.broker.state import BrokerState
from repro.obs.metrics import MetricsRegistry
from repro.os.filesystem import Filesystem
from repro.sim import Environment
from tests.properties.test_journal_replay import HOSTS, Clock, _random_ops


def _random_payloads(rng):
    alphabet = "abcdefghij{}\":,0123456789"
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        for _ in range(rng.randrange(1, 12))
    ]


def _mutate(data, rng):
    """One random corruption of a framed stream."""
    kind = rng.randrange(5)
    if not data:
        return data
    if kind == 0:  # truncate anywhere (torn tail)
        return data[: rng.randrange(len(data) + 1)]
    if kind == 1:  # flip one character (bit rot)
        i = rng.randrange(len(data))
        return data[:i] + rng.choice("zq!#") + data[i + 1 :]
    if kind == 2:  # duplicate a tail (a resend glued past the end)
        k = rng.randrange(1, len(data) + 1)
        return data + data[-k:]
    if kind == 3:  # delete a middle slice (a lost chunk)
        i = rng.randrange(len(data))
        j = rng.randrange(i, len(data) + 1)
        return data[:i] + data[j:]
    return data + "".join(rng.choice("xyz123") for _ in range(rng.randrange(1, 20)))


@pytest.mark.parametrize("seed", range(25))
def test_frame_decoding_is_total_under_corruption(seed):
    rng = random.Random(seed)
    payloads = _random_payloads(rng)
    data = "".join(_frame(p) for p in payloads)
    for _ in range(rng.randrange(1, 4)):
        data = _mutate(data, rng)
    decoded, torn, corrupt = parse_frames(data)  # must never raise
    # Parsing stops at the first unreadable frame: at most one bad record
    # is ever charged, and nothing after it is trusted.
    assert torn + corrupt <= 1
    # Every decoded payload survived a CRC check; re-framing them must
    # reproduce exactly the prefix of the input that was accepted.
    reframed = "".join(_frame(p) for p in decoded)
    assert data.startswith(reframed)


@pytest.mark.parametrize("seed", range(25))
def test_truncation_decodes_to_an_exact_prefix(seed):
    rng = random.Random(1000 + seed)
    payloads = _random_payloads(rng)
    data = "".join(_frame(p) for p in payloads)
    cut = rng.randrange(len(data) + 1)
    decoded, torn, corrupt = parse_frames(data[:cut])
    assert corrupt == 0
    assert decoded == payloads[: len(decoded)]
    whole = sum(len(_frame(p)) for p in decoded)
    # Either the cut landed on a frame boundary (clean prefix, no tear) or
    # mid-frame (everything before it decoded, one torn tail).
    assert (torn, whole) == ((0, cut) if whole == cut else (1, whole))


@pytest.mark.parametrize("seed", range(8))
def test_shipped_stream_reproduces_primary_fingerprint(seed):
    """The fake-standby equivalence property behind fenced promotion."""
    rng = random.Random(seed)
    clock = Clock()
    journal = BrokerJournal(
        Filesystem(),
        clock,
        # Small enough that most runs compact mid-stream, so the shipped
        # epoch openers are exercised, not just plain WAL appends.
        compact_bytes=rng.choice([400, 1200, 65536]),
    )
    state = BrokerState()
    for host in HOSTS:
        state.add_machine(host)
    journal.attach(state, epoch=1)
    stream = ShipStream(journal, 1)

    # The standby baselines from the snapshot the ship server sends at
    # hello (offset 0 of the stream), then applies frames on top.
    shadow = BrokerState()
    info = RecoveryInfo()
    apply_snapshot(shadow, snapshot_state(state), info)
    consumed = 0
    reqid = iter(range(1, 10_000))
    for _ in range(8):
        _random_ops(state, journal, clock, rng, steps=12, reqid=reqid)
        journal.flush(force=True)
        pending = stream.pending(consumed)
        assert pending is not None  # nothing acked was ever trimmed early
        for start, data in pending:
            assert start == consumed  # chunk starts are valid cut points
            payloads, torn, corrupt = parse_frames(data)
            assert torn == 0 and corrupt == 0  # chunks are whole frames
            apply_payloads(shadow, payloads, info)
            consumed += len(data)
            stream.note_ack(consumed)
        assert consumed == stream.flushed_offset
        assert stream.lag() == 0
        # The standby's shadow at the acked offset is the primary's state
        # at the flush that produced it, field for field.
        assert state_fingerprint(shadow) == state_fingerprint(state)
    assert info.corrupt_records == 0
    assert info.skipped_ops == 0


@pytest.mark.parametrize("seed", range(4))
def test_resend_after_partial_ack_converges(seed):
    """An unacked tail resent from the last acked offset (the reconnect
    path) applies cleanly on top of what the standby already has."""
    rng = random.Random(4000 + seed)
    clock = Clock()
    journal = BrokerJournal(Filesystem(), clock, compact_bytes=65536)
    state = BrokerState()
    for host in HOSTS:
        state.add_machine(host)
    journal.attach(state, epoch=1)
    stream = ShipStream(journal, 1)

    shadow = BrokerState()
    info = RecoveryInfo()
    apply_snapshot(shadow, snapshot_state(state), info)
    _random_ops(state, journal, clock, rng, steps=30)
    journal.flush(force=True)
    chunks = stream.pending(0)
    assert chunks

    # Apply and ack only a prefix of the chunks ("the connection died").
    acked = 0
    for start, data in chunks[: len(chunks) // 2]:
        payloads, _, _ = parse_frames(data)
        apply_payloads(shadow, payloads, info)
        acked = start + len(data)
    stream.note_ack(acked)

    # Reconnect: the primary resends everything from the acked offset.
    resend = stream.pending(acked)
    assert resend is not None
    for start, data in resend:
        assert start >= acked
        payloads, torn, corrupt = parse_frames(data)
        assert torn == 0 and corrupt == 0
        apply_payloads(shadow, payloads, info)
    assert state_fingerprint(shadow) == state_fingerprint(state)


def _replica_at(fs):
    """A replica over ``fs``: what ``rbstandby`` builds at boot."""
    network = SimpleNamespace(metrics=MetricsRegistry(Environment()))
    return _Replica(SimpleNamespace(machine=SimpleNamespace(fs=fs, network=network)))


def _shipped_replica(seed):
    """A replica baselined mid-stream and fed the frames after it, acking
    each one, as ``rbstandby`` does; returns (replica, stream, fs)."""
    rng = random.Random(7000 + seed)
    clock = Clock()
    journal = BrokerJournal(Filesystem(), clock, compact_bytes=1200)
    state = BrokerState()
    for host in HOSTS:
        state.add_machine(host)
    journal.attach(state, epoch=2)
    stream = ShipStream(journal, 2)
    reqid = iter(range(1, 10_000))
    _random_ops(state, journal, clock, rng, steps=10, reqid=reqid)
    journal.flush(force=True)
    fs = Filesystem()
    replica = _replica_at(fs)
    assert (replica.stream, replica.acked) == (0, 0)
    replica.accept_snapshot(
        protocol.ship_snapshot(
            stream.id, stream.flushed_offset, snapshot_state(state), 2
        )
    )
    for _ in range(4):
        sent = replica.acked
        _random_ops(state, journal, clock, rng, steps=10, reqid=reqid)
        journal.flush(force=True)
        for start, data in stream.pending(sent):
            assert replica.accept_frame(protocol.ship_frame(2, start, data))
        stream.note_ack(replica.acked)
    assert replica.acked == stream.flushed_offset
    assert state_fingerprint(replica.state) == state_fingerprint(state)
    return replica, stream, fs


@pytest.mark.parametrize("seed", range(4))
def test_respawned_replica_resumes_from_its_disk(seed):
    """A replica rebuilt from its machine's disk (a killed standby's
    respawn) holds exactly what the live shadow held, so its hello resumes
    the stream instead of asking for a snapshot."""
    live, stream, fs = _shipped_replica(seed)
    assert live.base > 0  # baselined mid-stream, not at offset 0
    fresh = _replica_at(fs)
    for field in ("stream", "base", "acked", "witnessed"):
        assert getattr(fresh, field) == getattr(live, field), field
    assert state_fingerprint(fresh.state) == state_fingerprint(live.state)
    assert stream.pending(fresh.acked) == []


@pytest.mark.parametrize("damage", ["missing", "torn"])
def test_unreadable_replica_snapshot_rebaselines(damage):
    """A missing or torn ``snap`` reads as stream 0, which no primary
    ships, so the respawned replica's hello re-baselines from a snapshot.
    No injected fault damages the standby's disk today; this pins what a
    respawn would do if one did."""
    _live, stream, fs = _shipped_replica(0)
    path = f"{_DIR}/snap"
    if damage == "missing":
        fs.unlink(path)
    else:
        fs.write(path, fs.read(path)[:-1])
    fresh = _replica_at(fs)
    assert (fresh.stream, fresh.base, fresh.acked) == (0, 0, 0)
    assert fresh.stream != stream.id
    assert state_fingerprint(fresh.state) == state_fingerprint(BrokerState())
