"""What a parked process keeps alive, and in which order subscribers wake.

A process parked on an event holds the event and nothing else: no callback
list, no bound method, no fresh deadline timer per silent period, no
finished CPU bursts.  These tests pin that bookkeeping — every number here
is a count of Python objects or an identity check, exact on any hardware —
together with the ordering contract the waiter slot must keep: waiter, then
callbacks, equals registration order.
"""

import gc
from collections import deque

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.network import EXPIRED, Connection
from repro.experiments.sweep import WORKLOADS
from repro.os.signals import SIGKILL
from repro.sim import Environment
from repro.sim.events import NO_CALLBACKS
from repro.sim.process import Interrupt
from repro.sim.stores import Store
from tests.cluster.test_recv_or_deadline import make_wire


# -- the census ---------------------------------------------------------------


def test_steady_state_churn_cell_retains_few_objects_per_machine():
    """Objects born in 1.9 sim-s of steady state and still alive are what
    the cyclic collector re-walks for nothing; per machine there are three
    (receive, two heap entries) and five more for the whole cell, where the
    four objects per parked wait used to make it 12.8 and a worker's
    one-second burst (task, heap entry) 5.02: an open-ended burst is as old
    as its worker."""
    machines = 64
    cluster = Cluster(ClusterSpec.uniform(machines, seed=5))
    service = cluster.start_broker()
    service.wait_ready()
    WORKLOADS["churn"](cluster, service, 40.0)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        cluster.env.run(until=cluster.now + 1.9)
        born = len(gc.get_objects(generation=0))
    finally:
        if was_enabled:
            gc.enable()
    cluster.assert_no_crashes()
    assert born / machines <= 3.2


def test_idle_sockets_own_no_queue_objects():
    """A connection pays for a deque only once a message has had to wait
    (here: each daemon's hello, in before the broker's handler was up).
    The hundreds of rsh sockets the churn opens and closes never do, and
    neither does EOF arriving at a drained endpoint."""

    def count_deques():
        return sum(isinstance(obj, deque) for obj in gc.get_objects())

    machines = 64
    gc.collect()
    foreign = count_deques()  # the test runner's own
    cluster = Cluster(ClusterSpec.uniform(machines, seed=5))
    service = cluster.start_broker()
    service.wait_ready()
    WORKLOADS["churn"](cluster, service, 10.0)
    cluster.assert_no_crashes()
    gc.collect()
    live = gc.get_objects()
    connections = [obj for obj in live if isinstance(obj, Connection)]
    stores = sum(isinstance(obj, Store) for obj in live)
    del live
    buffered = sum(conn._buffer is not None for conn in connections)
    assert buffered <= machines + 1
    assert buffered * 8 <= len(connections)
    # A store owns two deques (items and getters; putters are lazy) and
    # the kernel one, its immediates.
    assert count_deques() - foreign <= 2 * stores + buffered + 1


# -- the waiter slot ----------------------------------------------------------


def test_sole_waiter_parks_in_the_slot_and_allocates_no_list():
    env = Environment()
    event = env.event()

    def waiter():
        return (yield event)

    proc = env.process(waiter())
    env.run(until=1.0)
    assert event._waiter is proc and proc.target is event
    assert event.callbacks is NO_CALLBACKS
    event.succeed("v")
    assert env.run(proc) == "v"
    assert event._waiter is None and event.callbacks is None


def test_waiter_then_callbacks_is_registration_order():
    env = Environment()
    order = []

    def parked(event, name):
        yield event
        order.append(name)

    # Process first: it takes the slot, later subscribers queue behind it.
    first = env.event()
    env.process(parked(first, "p1"))
    env.run(until=1.0)
    first.add_callback(lambda _ev: order.append("cb"))
    env.process(parked(first, "p2"))
    env.run(until=2.0)
    assert first._waiter is not None and len(first.callbacks) == 2
    first.succeed()
    env.run(until=3.0)
    assert order == ["p1", "cb", "p2"]

    # Callback first: the process may not jump the queue through the slot.
    del order[:]
    second = env.event()
    second.add_callback(lambda _ev: order.append("cb"))
    env.process(parked(second, "p"))
    env.run(until=4.0)
    assert second._waiter is None and len(second.callbacks) == 2
    second.succeed()
    env.run(until=5.0)
    assert order == ["cb", "p"]


def test_slot_freed_by_an_interrupt_is_not_taken_ahead_of_callbacks():
    """Once a callback is registered, a later process never uses the slot,
    even when the slot's first owner has been interrupted away."""
    env = Environment()
    event = env.event()
    order = []

    def leaver():
        try:
            yield event
        except Interrupt:
            order.append("interrupted")

    def stayer():
        yield event
        order.append("stayer")

    gone = env.process(leaver())
    env.run(until=1.0)
    event.add_callback(lambda _ev: order.append("cb"))
    gone.interrupt()
    env.run(until=2.0)
    assert event._waiter is None
    env.process(stayer())
    env.run(until=3.0)
    assert event._waiter is None
    event.succeed()
    env.run()
    assert order == ["interrupted", "cb", "stayer"]


@pytest.mark.parametrize("how", ["interrupt", "abort"])
def test_removing_a_slot_parked_process_cancels_its_orphaned_timer(how):
    env = Environment()
    seen = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            seen.append("interrupted")

    proc = env.process(sleeper())
    env.run(until=1.0)
    timer = proc.target
    assert timer._waiter is proc and timer.callbacks is NO_CALLBACKS
    getattr(proc, how)()
    env.run(until=2.0)
    assert timer.cancelled and timer._waiter is None
    assert seen == (["interrupted"] if how == "interrupt" else [])
    env.run()
    assert env.now == 2.0  # the dead timer did not hold the clock to t=100
    assert env.heap_stats()["skipped_cancelled"] == 1


def test_a_timer_someone_else_listens_to_survives_its_waiter():
    env = Environment()
    fired = []

    def sleeper(timer):
        yield timer  # pragma: no cover - aborted while parked

    timer = env.timeout(5.0, "ring")
    proc = env.process(sleeper(timer))
    env.run(until=1.0)
    timer.add_callback(lambda ev: fired.append(ev.value))
    proc.abort()
    assert not timer.cancelled and timer._waiter is None
    env.run()
    assert fired == ["ring"]


# -- the re-armed deadline -------------------------------------------------------


def test_one_deadline_timer_serves_consecutive_expiries():
    env, near, _far = make_wire()
    timers, seen = [], []

    def reader():
        for _ in range(3):
            timer = near.recv_or_deadline(1.0)
            timers.append(timer)
            seen.append(((yield timer), env.now))
            del timer

    env.process(reader())
    env.run()
    assert seen == [(EXPIRED, 1.0), (EXPIRED, 2.0), (EXPIRED, 3.0)]
    assert timers[0] is timers[1] is timers[2]
    # Re-arming pushes exactly what a fresh Timeout would have.
    stats = env.heap_stats()
    assert stats["skipped_cancelled"] == 0
    assert stats["pushes"] == stats["processed"] == 5  # start, 3 expiries, exit


def test_a_cancelled_deadline_timer_is_not_reused():
    env, near, far = make_wire()
    timers, seen = [], []

    def reader():
        for _ in range(3):
            timer = near.recv_or_deadline(1.0)
            timers.append(timer)
            seen.append(((yield timer), env.now))
            del timer

    def sender():
        yield env.timeout(1.25)
        far.send("m")  # lands at 1.5, inside the second wait

    env.process(reader())
    env.process(sender())
    env.run()
    assert seen == [(EXPIRED, 1.0), ("m", 1.5), (EXPIRED, 2.5)]
    # The second wait re-armed the first timer; the message cancelled it,
    # and its dead heap entry (due at 2.0) outlives the third call: that
    # call must not revive the object.
    assert timers[1] is timers[0] and timers[1].cancelled
    assert timers[2] is not timers[1] and not timers[2].cancelled
    assert env.heap_stats()["skipped_cancelled"] == 1


# -- finished bursts ----------------------------------------------------------------


def test_finished_bursts_leave_computes_at_the_next_burst():
    cluster = Cluster(ClusterSpec.uniform(1))
    held = []

    def body(proc):
        for _ in range(20):
            yield proc.compute(0.1)
            held.append(len(proc._computes))
        return 0

    cluster.system_bin.register("bursts", body)
    proc = cluster.run_command("n00", ["bursts"])
    cluster.env.run(until=proc.terminated)
    assert proc.exit_code == 0
    assert max(held) <= 1 and len(proc._computes) <= 1


def test_overlapping_bursts_are_all_cancelled_at_death():
    """Pruning per burst must only drop *finished* bursts."""
    cluster = Cluster(ClusterSpec.uniform(1))

    def body(proc):
        proc.compute(50.0)
        proc.compute(60.0)
        yield proc.compute(70.0)

    cluster.system_bin.register("hog", body)
    proc = cluster.run_command("n00", ["hog"])
    cluster.env.run(until=cluster.now + 1.0)
    cpu = cluster.machine("n00").cpu
    assert len(proc._computes) == 3 and cpu.load == 3
    proc.signal(SIGKILL)
    assert cpu.load == 0
