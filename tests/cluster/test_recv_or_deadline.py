"""``Connection.recv_or_deadline``: the one "receive or deadline" wait.

A process parks on a plain timer; the pending receive resumes it inside its
own dispatch when a message (or EOF) wins.  No condition event sits between
the two, so every case a condition used to arbitrate is spelled out here.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.network import EXPIRED, Connection, Network
from repro.os import ConnectionClosed
from repro.sim import Environment


def make_wire():
    """A connected endpoint pair on a bare network (latency 0.25 s)."""
    env = Environment()
    network = Network(env)
    network.latency = 0.25
    near = Connection(network, "near")
    far = Connection(network, "far")
    near.peer, far.peer = far, near
    return env, near, far


@pytest.fixture
def wire():
    return make_wire()


def at(env, when, action):
    def later():
        yield env.timeout(when)
        action()

    env.process(later())


def test_timer_wins_and_the_receive_stays_pending(wire):
    env, near, far = wire
    seen = []

    def reader():
        for _ in range(1000):
            seen.append((yield near.recv_or_deadline(1.0)))
        seen.append((yield near.recv_or_deadline(5.0)))
        seen.append(env.now)

    env.process(reader())
    env.run(until=999.5)
    pending = near._pending_recv
    assert pending is not None and not pending.triggered
    # One receive parked for a thousand waits, holding its one callback.
    assert near._reader is pending
    assert len(pending.callbacks) == 1
    at(env, 1.0, lambda: far.send({"n": 1}))  # sent at 1000.5
    env.run()
    assert seen[:1000] == [EXPIRED] * 1000
    assert seen[1000:] == [{"n": 1}, 1000.75]
    # The silent waits cost one event each: nothing was cancelled.
    assert env.heap_stats()["skipped_cancelled"] == 1  # the last deadline


def test_message_wins_and_the_timer_is_cancelled(wire):
    env, near, far = wire
    seen = []

    def reader():
        seen.append((yield near.recv_or_deadline(10.0)))
        seen.append(env.now)

    env.process(reader())
    at(env, 2.0, lambda: far.send("hello"))
    env.run(until=3.0)
    assert seen == ["hello", 2.25]
    assert near._deadline is None  # nobody is parked any more
    # The orphaned deadline was cancelled in place and discarded unrun.
    env.run()
    stats = env.heap_stats()
    assert stats["skipped_cancelled"] == 1 and stats["pending"] == 0
    assert env.now == 3.0 and seen == ["hello", 2.25]


def test_deadline_is_not_stretched_by_messages(wire):
    """The daemon's loop: chatter is handled, the due time does not move."""
    env, near, far = wire
    handled, woke = [], []

    def reporter():
        due = env.now + 5.0
        while True:
            remaining = due - env.now
            if remaining <= 0.0:
                break
            received = yield near.recv_or_deadline(remaining)
            if received is EXPIRED:
                break
            handled.append((received, env.now))
        woke.append(env.now)

    env.process(reporter())
    at(env, 1.0, lambda: far.send("a"))
    at(env, 2.0, lambda: far.send("b"))
    env.run()
    assert handled == [("a", 1.25), ("b", 2.25)]
    assert woke == [5.0]


def test_fenced_daemon_report_times_equal_the_parents():
    """A daemon under broker chatter (welcome, grant_install, lease_renew:
    the warm-standby configuration) reports at the instants it did before
    the wait was fused — values captured at the parent commit."""
    times, chatter = [], []
    original = Connection.send

    def recording_send(self, message):
        if isinstance(message, dict):
            kind = message.get("type")
            if self.host == "n01" and kind in ("daemon_beacon", "daemon_report"):
                times.append(self.env.now)
            if self.peer.host == "n01" and kind in (
                "daemon_welcome",
                "grant_install",
                "lease_renew",
            ):
                chatter.append((self.env.now, kind))
        return original(self, message)

    Connection.send = recording_send
    try:
        cluster = Cluster(ClusterSpec.uniform(4, seed=3))
        service = cluster.start_broker(
            journal=True,
            standby_host="n03",
            managed_hosts=["n00", "n01", "n02"],
        )
        service.wait_ready()
        for _ in range(2):
            service.submit("n00", ["rsh", "anylinux", "compute", "4"], uid="u")
        cluster.env.run(until=cluster.now + 20.0)
    finally:
        Connection.send = original
    assert times == [
        0.4106,
        2.4106,
        4.4106000000000005,
        6.4106000000000005,
        8.4106,
        10.4106,
        12.4106,
        14.4106,
        16.410600000000002,
        18.410600000000002,
        20.410600000000002,
    ]
    assert chatter == [
        (0.4108, "daemon_welcome"),
        (0.744, "grant_install"),
        (2.4108, "lease_renew"),
        (4.410800000000001, "lease_renew"),
    ]


def test_eof_wins_and_raises_at_its_delivery_instant(wire):
    env, near, far = wire
    seen = []

    def reader():
        try:
            yield near.recv_or_deadline(10.0)
        except ConnectionClosed:
            seen.append(("closed", env.now))
        try:
            yield near.recv_or_deadline(10.0)
        except ConnectionClosed:
            seen.append(("still closed", env.now))

    env.process(reader())
    at(env, 2.0, far.close)
    env.run()
    assert seen == [("closed", 2.25), ("still closed", 2.25)]
    assert near.closed_remote


def test_waiter_killed_while_parked_detaches_from_both(wire):
    env, near, far = wire
    seen = []

    def reader():
        seen.append((yield near.recv_or_deadline(10.0)))  # pragma: no cover

    victim = env.process(reader())
    env.run(until=1.0)
    timer, pending = near._deadline, near._pending_recv
    assert timer._waiter is victim and victim.target is timer
    victim.abort()
    assert timer.cancelled and timer._waiter is None and not timer.callbacks
    # The receive keeps only the connection's own hook, which finds nobody
    # parked when the message lands — and keeps it for the next reader.
    assert len(pending.callbacks) == 1
    far.send("late")
    env.run(until=2.0)
    assert seen == []

    def successor():
        seen.append((yield near.recv_or_deadline(10.0)))
        seen.append(env.now)

    env.process(successor())
    env.run()
    assert seen == ["late", 2.0]  # handed over at once, no deadline armed
    assert env.heap_stats()["skipped_cancelled"] == 1  # the victim's timer


@pytest.mark.parametrize("run", range(3))
def test_same_instant_tie_goes_to_the_lower_sequence_number(run):
    def timer_first():
        env, near, far = make_wire()
        seen = []

        def reader():
            # Deadline armed at t=0 for t=1.0; the message sent at 0.75
            # arrives at 1.0 too, scheduled later: the deadline goes first,
            # and the message is the very next wait's, at the same instant.
            seen.append(((yield near.recv_or_deadline(1.0)), env.now))
            seen.append(((yield near.recv_or_deadline(1.0)), env.now))

        env.process(reader())
        at(env, 0.75, lambda: far.send("tied"))
        env.run()
        return seen

    def message_first():
        env, near, far = make_wire()
        seen = []

        def reader():
            yield env.timeout(1.0)
            # Already buffered: the receive is scheduled before the zero
            # deadline that follows it, so the message wins the instant.
            seen.append(((yield near.recv_or_deadline(0.0)), env.now))

        env.process(reader())
        far.send("buffered")
        env.run()
        return seen

    assert timer_first() == [(EXPIRED, 1.0), ("tied", 1.0)]
    assert message_first() == [("buffered", 1.0)]
