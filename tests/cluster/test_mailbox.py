"""A ``Connection`` is its own mailbox: one reader slot, one lazy buffer.

The endpoint holds ``_reader`` (the one pending receive) and ``_buffer``
(``None`` whenever no message waits: a message that has to wait makes the
deque, the receive that drains it drops it; EOF queues in it only behind
messages still unread).  Every case the ``Store`` it replaced used to
arbitrate is spelled out here, on a bare wire with 0.25 s latency.
"""

import pytest

from repro.cluster.network import EOF
from repro.os import ConnectionClosed
from tests.cluster.test_recv_or_deadline import at, make_wire


@pytest.fixture
def wire():
    return make_wire()


def test_messages_buffered_before_any_reader_come_out_in_order(wire):
    env, near, far = wire
    for n in range(4):
        far.send(n)
    env.run(until=1.0)
    assert near._reader is None and list(near._buffer) == [0, 1, 2, 3]
    seen = []

    def reader():
        for _ in range(5):
            seen.append(((yield near.recv()), env.now))

    env.process(reader())
    at(env, 1.0, lambda: far.send("live"))  # sent at 2.0
    env.run()
    assert seen == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), ("live", 2.25)]
    # The receive that drained the deque dropped it.
    assert near._reader is None and near._buffer is None


def test_eof_is_sticky_and_stays_behind_what_is_still_unread(wire):
    env, near, far = wire
    far.send("last words")
    far.close()
    env.run(until=1.0)
    assert list(near._buffer) == ["last words", EOF]
    assert not near.closed_remote  # nobody has read that far yet
    seen = []

    def reader():
        seen.append((yield near.recv()))
        for _ in range(3):
            try:
                yield near.recv()
            except ConnectionClosed as exc:
                seen.append(str(exc))

    env.process(reader())
    env.run()
    assert seen == ["last words"] + ["EOF on near:0->far:0"] * 3
    assert near.closed_remote and list(near._buffer) == [EOF]
    assert env.now == 1.0  # every failure at once, none waited


def test_a_later_message_with_no_reader_makes_the_deque_again(wire):
    env, near, far = wire
    far.send(0)
    env.run(until=1.0)
    first = near.recv()
    assert first.value == 0 and near._buffer is None
    far.send(1)
    far.send(2)
    env.run(until=2.0)
    assert list(near._buffer) == [1, 2]
    seen = []

    def reader():
        for _ in range(3):
            seen.append((yield near.recv()))

    env.process(reader())
    at(env, 2.0, lambda: far.send(3))
    env.run()
    assert seen == [1, 2, 3] and near._buffer is None


def test_eof_behind_unread_messages_surfaces_after_them(wire):
    env, near, far = wire
    for message in ("a", "b"):
        far.send(message)
    far.close()
    env.run(until=1.0)
    assert list(near._buffer) == ["a", "b", EOF]
    assert near.recv().value == "a" and list(near._buffer) == ["b", EOF]
    assert near.recv().value == "b" and list(near._buffer) == [EOF]
    assert not near.closed_remote
    failed = near.recv()
    env.run()
    assert not failed.ok and isinstance(failed.value, ConnectionClosed)
    assert near.closed_remote


def test_eof_at_a_drained_endpoint_sets_closed_remote(wire):
    env, near, far = wire
    far.send("only")
    env.run(until=1.0)
    assert near.recv().value == "only" and near._buffer is None
    far.close()
    env.run()
    # Nobody is reading: EOF is the flag alone, no deque is made for it.
    assert near.closed_remote and near._buffer is None and near._reader is None
    failed = near.recv()
    env.run()
    assert not failed.ok and isinstance(failed.value, ConnectionClosed)


def test_eof_reaches_a_parked_reader_and_every_later_one(wire):
    env, near, far = wire
    seen = []

    def reader():
        for _ in range(2):
            try:
                yield near.recv()
            except ConnectionClosed:
                seen.append(("closed", env.now, near.closed_remote))

    env.process(reader())
    at(env, 1.0, far.close)
    env.run()
    assert seen == [("closed", 1.25, True)] * 2
    # EOF at an empty mailbox is a flag, not a queue entry.
    assert near._reader is None and near._buffer is None


def test_message_overtaken_by_eof_is_never_read(wire):
    """A latency spike (fault model) can land a message after the EOF that
    was sent behind it: EOF stays sticky, the straggler is unreachable."""
    env, near, far = wire
    near.network.latency = 1.0
    far.send("straggler")
    near.network.latency = 0.25
    far.close()
    env.run()
    assert near.closed_remote and list(near._buffer) == ["straggler"]
    failed = near.recv()
    env.run()
    assert not failed.ok and isinstance(failed.value, ConnectionClosed)
    assert list(near._buffer) == ["straggler"] and near._reader is None


def test_message_racing_a_local_close_is_dropped_and_counted(wire):
    env, near, far = wire
    far.send("in flight")
    near.close()
    env.run()
    assert near._buffer is None and near._reader is None
    assert near.network.metrics.counter("net.dropped_sends").value == 1


def test_second_concurrent_recv_raises(wire):
    env, near, far = wire
    first = near.recv()
    with pytest.raises(RuntimeError, match="concurrent recv on near"):
        near.recv()
    assert near._reader is first
    far.send("m")
    env.run()
    assert first.value == "m"
    # The slot is free again: one reader at a time, any number in a row.
    second = near.recv()
    assert near._reader is second and not second.triggered


def test_orphaned_reader_takes_the_next_message_and_no_run_aborts(wire):
    """A reader killed while parked leaves its receive in the slot.  The
    next message (or EOF) goes to it and is lost, quietly — as it was when
    the receive sat in a store's getter queue."""
    env, near, far = wire
    seen = []

    def reader():
        seen.append((yield near.recv()))  # pragma: no cover

    victim = env.process(reader())
    env.run(until=1.0)
    orphan = near._reader
    assert victim.target is orphan
    victim.abort()
    assert near._reader is orphan  # the connection does not know
    far.send("lost")
    env.run(until=2.0)
    assert orphan.processed and orphan.value == "lost" and seen == []
    assert near._reader is None and near._buffer is None

    # EOF to an orphan is a failure nobody consumes: it must not abort.
    orphan = near.recv()
    far.close()
    env.run()
    assert orphan.processed and not orphan.ok
    assert isinstance(orphan.value, ConnectionClosed)


def test_no_buffer_on_a_fresh_or_handed_over_endpoint(wire):
    env, near, far = wire
    assert near._buffer is None and far._buffer is None
    seen = []

    def reader():
        while True:
            seen.append((yield near.recv()))

    env.process(reader())
    for n in range(50):
        at(env, 1.0 + n, lambda n=n: far.send(n))
    env.run(until=100.0)
    assert seen == list(range(50))
    # Every message found the reader parked: nothing ever had to wait.
    assert near._buffer is None and near._reader is not None
