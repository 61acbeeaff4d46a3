"""What a parked process keeps alive, and in which order subscribers wake.

A process parked on an event holds the event and nothing else: no callback
list, no bound method, no fresh deadline timer per silent period, no
finished CPU bursts.  A simulated OS process owns only the containers and
events it has used, lets go of them at exit, and prunes its socket and
thread lists from their second entry; a connection owns no delivery or EOF
callback and no deque once drained, and a tracer builds its query indexes
only when asked.  These tests pin that bookkeeping — every number here is
a count of Python objects or an identity check, exact on any hardware —
together with the ordering contract the waiter slot must keep: waiter,
then callbacks, equals registration order.
"""

import gc
import math
from collections import Counter, deque
from types import FunctionType, GeneratorType

import pytest

from repro.broker.rshprime import rshprime_main
from repro.cluster import Cluster, ClusterSpec
from repro.cluster.network import (
    DELIVER,
    DELIVER_EOF,
    EXPIRED,
    Connection,
    Listener,
)
from repro.experiments import run_chaos, run_fig7, run_table1, run_table2, run_table3
from repro.experiments.chaos import SCENARIOS, check_scenario
from repro.experiments.sweep import WORKLOADS
from repro.obs.spans import Tracer
from repro.os.process import EMPTY, PRUNE_AT, OSProcess
from repro.os.signals import SIGKILL
from repro.sim import Environment
from repro.sim.events import NO_CALLBACKS
from repro.sim.process import Interrupt, Process
from repro.sim.pshare import PSTask
from repro.sim.stores import NO_ITEMS, Store
from tests.cluster.test_recv_or_deadline import make_wire


# -- the census ---------------------------------------------------------------


def _settled_churn_objects(machines):
    """Tracked objects a churn cell of ``machines`` holds once settled (40
    sim-s: every machine granted, the first arrival placed)."""
    gc.collect()
    before = len(gc.get_objects())
    cluster = _churn_cell(machines, 40.0)
    gc.collect()
    held = len(gc.get_objects()) - before
    cluster.close()
    return held


def test_a_settled_churn_cell_tracks_few_objects_per_machine():
    """What the cyclic collector walks per machine, net of the fixed cost
    (broker, interpreter, modules): the difference between a 64- and a
    32-machine cell, after a small cell has paid for every first use.  It
    was 174.0 while every process made its exit event, every connection its
    delivery callback and every span its index entries up front; 154.0
    once they are made on first use; 150.0 once a drained mailbox drops
    its deque, a finished session leaves rshd and rsh' drops its
    negotiation socket."""
    _settled_churn_objects(8)
    small, large = _settled_churn_objects(32), _settled_churn_objects(64)
    per_machine = (large - small) / 32
    assert per_machine <= 151


def test_a_settled_churn_cell_keeps_no_finished_session_mailbox_or_socket():
    """Finished work leaves the heap when it finishes.  In the settled
    64-machine cell no rshd holds a finished session thread (each kept
    the one that started its daemon), no endpoint holds an empty deque
    (each broker-side daemon session kept the one its hello made) and no
    rsh' frame holds the socket it negotiated on and closed."""
    cluster = _churn_cell(64, 40.0)
    gc.collect()
    live = gc.get_objects()
    rshds = [o for o in live if isinstance(o, OSProcess) and o.name == "rshd"]
    connections = [obj for obj in live if isinstance(obj, Connection)]
    frames = [
        obj.gi_frame
        for obj in live
        if isinstance(obj, GeneratorType)
        and obj.gi_code is rshprime_main.__code__
    ]
    del live
    assert cluster.env.now > 40.0 and len(rshds) == 64 and len(frames) >= 32
    finished = [t.name for proc in rshds for t in proc._threads if not t.is_alive]
    assert finished == []
    drained = [
        conn.label
        for conn in connections
        if conn._buffer is not None and not conn._buffer
    ]
    assert drained == []
    closed = [
        frame.f_locals["conn"].label
        for frame in frames
        if isinstance(frame.f_locals.get("conn"), Connection)
        and frame.f_locals["conn"].closed_local
    ]
    assert closed == []


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
    """A connection pays for a deque only while a message waits (here:
    each daemon's hello, in before the broker's handler was up, until the
    handler reads it).  The hundreds of rsh sockets the churn opens and
    closes never do, and neither does EOF arriving at a drained endpoint:
    only an endpoint holding an unread message or EOF owns one."""

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
    holding = [conn for conn in connections if conn._buffer is not None]
    assert all(conn._buffer for conn in holding)
    buffered = len(holding)
    assert buffered * 8 <= len(connections)
    # A store owns at most two deques (items and putters, both made on
    # demand) and the kernel one, its immediates.
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


# -- finished connections ------------------------------------------------------


def test_a_pair_closed_at_both_ends_is_freed_by_reference_counting():
    """Each end links the other (``peer``); the second close unlinks both,
    so a finished pair never waits for the cyclic collector.  A message
    still in flight when the pair closes names the end it was sent to and
    is counted as a dropped send."""

    def connections():
        return sum(isinstance(obj, Connection) for obj in gc.get_objects())

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = connections()
        env, near, far = make_wire()
        seen = []

        def reader():
            seen.append((yield near.recv_or_deadline(1.0)))  # ping, t=0.25
            seen.append((yield near.recv_or_deadline(1.0)))  # silence, t=1.25
            near.send("pong")
            near.close()

        def writer():
            far.send("ping")
            seen.append((yield far.recv()))  # pong, t=1.5
            far.send("late")  # in flight to a closed end
            far.close()

        env.process(reader())
        env.process(writer())
        env.run()
        assert seen == ["ping", EXPIRED, "pong"]
        assert near._pending_recv is not None  # the timed-out receive, failed
        assert near.peer is None and far.peer is None
        assert near.network.metrics.counter("net.dropped_sends").value == 1
        assert connections() == before + 2
        del near, far
        assert connections() == before
    finally:
        if was_enabled:
            gc.enable()


def test_every_endpoint_shares_one_delivery_list():
    """A delivery timer names its endpoint and carries the module's one
    callback list: no endpoint holds a list or a bound method of its own."""
    env, near, far = make_wire()
    near.send("a")
    far.send("b")
    far.send("c")
    timers = [entry[3] for entry in env._queue]
    assert [timer.to for timer in timers] == [far, near, near]
    assert all(timer.callbacks is DELIVER for timer in timers)
    for end in (near, far):
        assert not hasattr(end, "__dict__")
        assert not [r for r in gc.get_referents(end) if isinstance(r, list)]
    env.run()
    assert near.recv().value == "b" and near.recv().value == "c"
    assert far.recv().value == "a"


def test_every_close_shares_one_eof_list():
    """A close makes one timer, as it always did; the timer names the peer
    and carries the module's EOF list, so a close allocates no closure and
    no list."""
    env, near, far = make_wire()
    far.close()
    near.close()
    timers = [entry[3] for entry in sorted(env._queue)]
    assert [timer.to for timer in timers] == [near, far]
    assert all(timer.callbacks is DELIVER_EOF for timer in timers)
    assert near.peer is None and far.peer is None
    env.run()
    assert near.closed_remote and far.closed_remote


# -- spans ---------------------------------------------------------------------


def _index(tracer):
    """Every query answer of ``tracer``, by query."""
    spans = tracer.spans
    return {
        "get": {s.span_id: tracer.get(s.span_id) for s in spans},
        "named": {s.name: tracer.spans_named(s.name) for s in spans},
        "trace": {s.trace_id: tracer.trace(s.trace_id) for s in spans},
        "children": {s.span_id: tracer.children_of(s) for s in spans},
        "roots": tracer.roots(),
    }


def _rebuilt(tracer):
    """A tracer holding the same spans, none of them folded yet."""
    fresh = Tracer(tracer.env)
    fresh.spans = list(tracer.spans)
    return fresh


def test_a_tracer_nobody_queries_builds_no_index():
    """Spans are indexed when a query first needs them: a run that never
    asks holds none, and a query after more spans arrived answers exactly
    like indexes built in one go."""
    cluster = _churn_cell(8, 10.0)
    tracer = cluster.network.tracer
    assert len(tracer.spans) > 20
    assert tracer._folded == 0 and tracer._roots == []
    assert tracer._by_id == tracer._by_name == tracer._by_trace == {}
    assert tracer._by_parent == {}
    first = _index(tracer)
    assert first == _index(_rebuilt(tracer))
    assert tracer._folded == len(tracer.spans)
    cluster.env.run(until=cluster.now + 40.0)
    assert tracer._folded < len(tracer.spans)
    assert _index(tracer) == _index(_rebuilt(tracer))
    assert first["roots"] == tracer.roots()[: len(first["roots"])]


# -- finished clusters ---------------------------------------------------------


def _cyclic_garbage(run) -> Counter:
    """The objects, by type, that the cyclic collector finds once ``run()``
    has returned: with the collector off and saving all it would free, this
    is everything reference counting did not free."""
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        gc.collect()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_a_finished_chaos_run_leaves_nothing_for_the_cyclic_collector(scenario):
    """``run_chaos`` closes its cluster: every live process's generator and
    every pending event go, and so does each back-pointer that closed a
    cycle, so the whole cluster — machines, processes, connections, spans,
    instruments, the broker and every incarnation of it — is freed by
    reference counting the moment the run returns."""
    assert _cyclic_garbage(lambda: run_chaos(1, **SCENARIOS[scenario])) == {}


@pytest.mark.parametrize(
    "scenario, seed, rule", [("journal", 1, None), ("plain", 4, "double_run")]
)
def test_a_checked_scenario_frees_the_oracles_cluster_too(scenario, seed, rule):
    """The oracle checks the settle-time properties as the cluster closes
    and unhooks its step loop, which held the environment: a green and a
    red verdict alike leave nothing behind."""
    verdicts = []
    garbage = _cyclic_garbage(
        lambda: verdicts.append(check_scenario(scenario, seed)[1])
    )
    assert [v and v.rule for v in verdicts] == [rule]
    assert garbage == {}


@pytest.mark.parametrize(
    "runner", [run_table1, run_table2, run_table3, run_fig7],
    ids=["table1", "table2", "table3", "fig7"],
)
def test_a_paper_run_leaves_nothing_for_the_cyclic_collector(runner):
    """Each measurement closes the cluster it built, with the processes
    still parked on a condition (the Calypso workers, the PVM daemons)."""
    assert _cyclic_garbage(runner) == {}


def _reads(cluster):
    """What a run is read for after its runner returned: rbbench's fold."""
    if cluster.federation is not None:
        services = cluster.federation.services
    else:
        services = [cluster.broker]
    return {
        "heap": cluster.env.heap_stats(),
        "now": cluster.now,
        "metrics": cluster.network.metrics.snapshot(),
        "spans": len(cluster.network.tracer.spans),
        "scanned": [service.state.machines_scanned for service in services],
    }


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_a_closed_cluster_reads_as_its_run_left_it(scenario, monkeypatch):
    seen = []
    build = Cluster.__init__

    def init(cluster, spec):
        build(cluster, spec)
        cluster.close_hooks.append(lambda: seen.append((cluster, _reads(cluster))))

    monkeypatch.setattr(Cluster, "__init__", init)
    run_chaos(1, **SCENARIOS[scenario])
    [(cluster, before)] = seen
    assert cluster.closed and not cluster.env._queue and not cluster.env._processes
    assert before["heap"]["pending"] > 0
    assert _reads(cluster) == before


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


# -- what a process owns --------------------------------------------------------


def _sleeper(proc):
    yield proc.sleep(1000.0)


class _Socket:
    """Stands in for a connection: counts how often a prune looks at it."""

    def __init__(self):
        self.open = True
        self.looks = 0

    @property
    def closed_local(self):
        self.looks += 1
        return not self.open

    def close(self):
        self.open = False


def _idle_process():
    cluster = Cluster(ClusterSpec.uniform(1))
    cluster.system_bin.register("sleeper", _sleeper)
    proc = cluster.run_command("n00", ["sleeper"])
    cluster.env.run(until=cluster.now + 1.0)
    return cluster, proc


def test_a_process_that_uses_nothing_owns_nothing():
    _cluster, proc = _idle_process()
    assert not hasattr(proc, "__dict__")
    for slot in ("children", "_computes", "_listeners", "_connections", "_threads"):
        assert getattr(proc, slot) is EMPTY, slot
    assert proc._terminated is None and proc._daemonized is None


def test_an_unwaited_process_makes_its_exit_event_only_at_exit():
    """Nobody asked for ``terminated`` before the exit, so it is made
    then, and fires as it always did: one kernel event, the exit code."""
    cluster, proc = _idle_process()
    assert proc._terminated is None
    processed = cluster.env.heap_stats()["processed"]
    proc.signal(SIGKILL)
    assert proc.exit_code == -9 and proc._terminated.triggered
    seen = []
    proc.terminated.add_callback(lambda ev: seen.append(ev.value))
    cluster.env.run(until=cluster.now + 1.0)
    assert seen == [-9] and proc.terminated.processed
    # The exit event and the killed body's completion, nothing more.
    assert cluster.env.heap_stats()["processed"] == processed + 2


def test_a_waited_process_fires_the_event_it_handed_out():
    cluster = Cluster(ClusterSpec.uniform(1))
    cluster.system_bin.register("sleeper", _sleeper)
    proc = cluster.run_command("n00", ["sleeper"])
    waited = proc.terminated
    cluster.env.run(until=waited)
    assert proc.terminated is waited and waited.value == 0


def test_daemonized_is_made_on_first_access_and_still_fires():
    cluster, proc = _idle_process()
    proc.daemonize()
    assert proc._daemonized is proc.daemonized and proc.daemonized.triggered
    cluster.env.run(until=cluster.now + 1.0)
    assert proc.daemonized.processed


def test_after_exit_a_process_references_no_socket_thread_or_burst():
    cluster = Cluster(ClusterSpec.uniform(2))
    ready = cluster.env.event()

    def server(proc):
        listener = proc.listen(7000)
        ready.succeed()
        conn = yield listener.accept()
        proc.thread(_sleeper(proc), name="idle")
        proc.compute(50.0)
        yield conn.recv()

    def client(proc):
        yield ready
        yield proc.connect("n00", 7000)
        yield proc.sleep(1000.0)

    cluster.system_bin.register("server", server)
    cluster.system_bin.register("client", client)
    proc = cluster.run_command("n00", ["server"])
    cluster.run_command("n01", ["client"])
    cluster.env.run(until=cluster.now + 2.0)
    assert proc._connections and proc._listeners and proc._threads
    assert proc._computes
    proc.signal(SIGKILL)
    assert proc.exit_code is not None
    for slot in ("_computes", "_listeners", "_connections", "_threads"):
        assert getattr(proc, slot) is EMPTY, slot
    held = gc.get_referents(proc)
    assert not [r for r in held if isinstance(r, (Connection, Listener, PSTask))]
    assert [r for r in held if isinstance(r, Process)] == [proc._sim_process]


def test_adopting_connections_that_stay_open_scans_logarithmically():
    _cluster, proc = _idle_process()
    first = _Socket()
    proc.adopt_connection(first)
    total = 4096
    sockets = [first] + [_Socket() for _ in range(total - 1)]
    for sock in sockets[1:]:
        proc.adopt_connection(sock)
    assert len(proc._connections) == total
    assert first.looks <= math.log2(total / PRUNE_AT) + 1
    assert sum(sock.looks for sock in sockets) <= 2 * total


def test_closing_each_connection_after_use_keeps_the_list_short():
    _cluster, proc = _idle_process()
    held = []
    for _ in range(5000):
        sock = _Socket()
        proc.adopt_connection(sock)
        held.append(len(proc._connections))
        sock.close()
    assert max(held) <= 64


def test_an_acceptor_of_short_threads_holds_at_most_twice_its_live_ones():
    cluster = Cluster(ClusterSpec.uniform(1))
    held, live = [], []

    def session(proc):
        yield proc.sleep(30.0)

    def acceptor(proc):
        for _ in range(10_000):
            proc.thread(session(proc), name="session")
            held.append(len(proc._threads))
            live.append(sum(thread.is_alive for thread in proc._threads))
            yield proc.sleep(1.0)

    cluster.system_bin.register("acceptor", acceptor)
    proc = cluster.run_command("n00", ["acceptor"])
    cluster.env.run(until=proc.terminated)
    assert proc.exit_code == 0 and len(held) == 10_000
    assert max(held) <= 2 * max(live)
    assert proc._threads is EMPTY


def test_a_server_of_one_session_at_a_time_holds_no_finished_one():
    """rshd's pattern: a session ends before the next one starts.  The
    thread list goes back to :data:`EMPTY` as each one finishes."""
    cluster = Cluster(ClusterSpec.uniform(1))
    held = []

    def session(proc):
        yield proc.sleep(1.0)

    def server(proc):
        for _ in range(3):
            proc.thread(session(proc), name="session")
            held.append(len(proc._threads))
            yield proc.sleep(2.0)
            held.append(proc._threads)
        yield proc.sleep(1.0)

    cluster.system_bin.register("server", server)
    proc = cluster.run_command("n00", ["server"])
    cluster.env.run(until=proc.terminated)
    assert proc.exit_code == 0 and held == [1, EMPTY] * 3


def _churn_cell(machines, seconds, **broker):
    cluster = Cluster(ClusterSpec.uniform(machines, seed=5))
    service = cluster.start_broker(**broker)
    service.wait_ready()
    WORKLOADS["churn"](cluster, service, seconds)
    cluster.assert_no_crashes()
    return cluster


def test_a_churn_cell_holds_no_thread_bookkeeping_closure():
    cluster = _churn_cell(64, 40.0)
    gc.collect()
    closures = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, FunctionType)
        and obj.__qualname__.startswith("OSProcess.thread.")
    ]
    assert cluster.env.now > 40.0 and closures == []


@pytest.mark.parametrize(
    "machines, broker",
    [(64, {}), (6, {"journal": True, "standby_host": "n05"})],
    ids=["plain", "standby"],
)
def test_a_churn_cell_references_no_dead_process(machines, broker):
    """Every finished process is garbage once its parent has waited for it:
    the broker's keepers, parked on a daemon's link or the standby's ship
    session for that child's whole life, must not keep the ``rsh`` that
    started it."""
    cluster = _churn_cell(machines, 40.0, **broker)
    gc.collect()
    processes = [obj for obj in gc.get_objects() if isinstance(obj, OSProcess)]
    dead = [proc.argv for proc in processes if not proc.is_alive]
    assert cluster.env.now > 40.0 and len(processes) > machines
    assert dead == []


def test_an_idle_rshd_backlog_owns_no_deque():
    cluster = _churn_cell(64, 40.0)
    backlogs = [
        listener._backlog
        for machine in cluster.machines.values()
        for proc in machine.procs.values()
        if proc.name == "rshd"
        for listener in proc._listeners
    ]
    assert len(backlogs) == 64
    for backlog in backlogs:
        assert len(backlog) == 0 and backlog.items is NO_ITEMS
        assert type(backlog._getters) is list and len(backlog._getters) == 1
