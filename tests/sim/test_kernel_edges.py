"""Edge-case tests for the kernel: abort, defuse, condition failures, and
the guard that ``run()``'s inlined dispatch and ``step()`` cannot drift."""

import pytest

from repro.broker.invariants import run_by_steps
from repro.cluster.network import EXPIRED, Connection
from repro.experiments import run_cell
from repro.os import ConnectionClosed
from repro.sim import Environment, Interrupt, ProcessorSharingQueue
from tests.cluster.test_recv_or_deadline import make_wire


def test_abort_runs_finally_blocks():
    env = Environment()
    cleaned = []

    def victim():
        try:
            yield env.timeout(100.0)
        finally:
            cleaned.append(True)

    p = env.process(victim())

    def killer():
        yield env.timeout(1.0)
        p.abort("gone")

    env.process(killer())
    env.run(until=5.0)
    assert cleaned == [True]
    assert not p.is_alive
    assert p.value == "gone"


def test_abort_does_not_run_except_interrupt():
    """abort == SIGKILL semantics: Interrupt handlers never fire."""
    env = Environment()
    handled = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            handled.append(True)  # must NOT happen on abort

    p = env.process(victim())

    def killer():
        yield env.timeout(1.0)
        p.abort()

    env.process(killer())
    env.run(until=5.0)
    assert handled == []


def test_abort_dead_process_is_noop():
    env = Environment()

    def quick():
        yield env.timeout(0.1)
        return 5

    p = env.process(quick())
    env.run()
    p.abort()  # no exception
    assert p.value == 5


def test_self_abort_rejected():
    env = Environment()

    def suicidal():
        yield env.timeout(0.1)
        p.abort()

    p = env.process(suicidal())
    with pytest.raises(RuntimeError, match="cannot abort itself"):
        env.run()


def test_waiters_of_aborted_process_resume():
    env = Environment()

    def victim():
        yield env.timeout(100.0)

    v = env.process(victim())

    def waiter():
        value = yield v
        return ("woke", value)

    w = env.process(waiter())

    def killer():
        yield env.timeout(1.0)
        v.abort("killed")

    env.process(killer())
    assert env.run(w) == ("woke", "killed")


def test_unhandled_failed_event_stops_run():
    env = Environment()
    ev = env.event()

    def failer():
        yield env.timeout(1.0)
        ev.fail(RuntimeError("nobody listens"))

    env.process(failer())
    with pytest.raises(RuntimeError, match="nobody listens"):
        env.run()


def test_defused_failed_event_is_silent():
    env = Environment()
    ev = env.event()
    ev.defuse()

    def failer():
        yield env.timeout(1.0)
        ev.fail(RuntimeError("quiet"))

    env.process(failer())
    env.run()  # no exception


def test_all_of_fails_fast():
    env = Environment()
    bad = env.event()

    def proc():
        slow = env.timeout(100.0)
        try:
            yield env.all_of([slow, bad])
        except ValueError as exc:
            return ("failed", str(exc), env.now)

    def failer():
        yield env.timeout(2.0)
        bad.fail(ValueError("nope"))

    p = env.process(proc())
    env.process(failer())
    outcome = env.run(p)
    assert outcome == ("failed", "nope", 2.0)


def test_empty_all_of_succeeds_immediately():
    env = Environment()

    def proc():
        result = yield env.all_of([])
        return result

    assert env.run(env.process(proc())) == {}


def test_condition_over_already_processed_events():
    env = Environment()
    done = env.event()
    done.succeed("v")

    def proc():
        yield env.timeout(1.0)  # let `done` process first
        result = yield env.any_of([done, env.timeout(50.0)])
        return list(result.values())

    assert env.run(env.process(proc())) == ["v"]


def test_mixing_environments_rejected():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError):
        env1.all_of([env1.event(), env2.event()])


def test_rejected_condition_leaves_nothing_behind():
    """The single construction pass subscribes as it validates; a foreign
    sub-event found late must not leave earlier ones holding the rejected
    condition's callback, nor a live heap entry if it already triggered."""
    env1, env2 = Environment(), Environment()
    pending, timer = env1.event(), env1.timeout(5.0)
    with pytest.raises(ValueError):
        env1.all_of([pending, timer, env2.event()])
    assert not pending.callbacks and not timer.callbacks
    done = env1.event()
    done.succeed("v")
    env1.run(until=1.0)
    with pytest.raises(ValueError):
        env1.any_of([done, env2.event()])  # triggered by `done`, then rejected
    env1.run()
    assert env1.heap_stats()["skipped_cancelled"] == 1


def test_dispatch_now_runs_an_event_inside_the_current_dispatch():
    env = Environment()
    order = []
    fused = env.event()
    fused.add_callback(lambda ev: order.append(("fused", ev.value, env.now)))

    def fire(_timer):
        fused._ok, fused._value = True, "payload"
        fused.dispatch_now()
        order.append("timer done")

    env.timeout(2.0).add_callback(fire)
    env.timeout(2.0).add_callback(lambda _ev: order.append("next event"))
    env.run()
    assert order == [("fused", "payload", 2.0), "timer done", "next event"]
    assert fused.processed and fused.ok
    # The fused event never was a kernel event of its own.
    assert env.heap_stats()["processed"] == 2
    with pytest.raises(RuntimeError):
        fused.add_callback(lambda ev: None)


def test_dispatch_now_skips_a_cancelled_event():
    env = Environment()
    fused = env.event()
    fused.add_callback(lambda ev: pytest.fail("cancelled events never run"))
    fused.cancel()

    def fire(_timer):
        fused._ok, fused._value = True, None
        fused.dispatch_now()

    env.timeout(1.0).add_callback(fire)
    env.run()
    assert not fused.processed
    assert env.heap_stats()["skipped_cancelled"] == 1


def test_callback_after_processed_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    env.run()
    with pytest.raises(RuntimeError):
        ev.add_callback(lambda e: None)


def test_value_before_trigger_rejected():
    env = Environment()
    with pytest.raises(RuntimeError):
        _ = env.event().value


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7.5)
    assert env.peek() == 7.5


def test_run_until_event_that_fails():
    env = Environment()
    gate = env.event()

    def failer():
        yield env.timeout(1.0)
        gate.fail(KeyError("boom"))

    env.process(failer())
    gate.defuse()
    with pytest.raises(KeyError):
        env.run(until=gate)


# -- step() and run() (the oracle's ``run_by_steps``) are one kernel -----------


def _every_dispatch_shape():
    """One short run through every way an event gets processed; returns the
    environment and the log its subscribers write as they wake."""
    env, near, far = make_wire()  # latency 0.25
    log = []

    def note(what):
        log.append((env.now, what))

    # A process parked in the waiter slot, then a callback and a second
    # process in the list, all on one event: wake in registration order.
    shared = env.event()

    def parked(name):
        note(f"{name} woke with {(yield shared)}")

    def subscribe_more(_ev):
        shared.add_callback(lambda _shared: note("callback ran"))
        env.process(parked("list"))

    env.process(parked("slot"))
    env.timeout(0.5).add_callback(subscribe_more)
    env.timeout(1.0).add_callback(lambda _ev: shared.succeed("go"))

    # An immediate: processed ahead of the heap, at the instant it was queued.
    def queue_immediate(_ev):
        immediate = env.event()
        immediate._ok, immediate._value = True, "now"
        immediate.add_callback(lambda ev: note(f"immediate {ev.value}"))
        env.deliver_now(immediate)
        env.timeout(0.0).add_callback(lambda _t: note("heap, same instant"))

    env.timeout(1.25).add_callback(queue_immediate)

    # A cancelled timer at the head of the heap when it comes up.
    dead = env.timeout(1.5)
    dead.add_callback(lambda _ev: note("cancelled timer ran"))
    dead.cancel()
    env.timeout(1.75).add_callback(lambda _ev: note("past the dead head"))

    # Two equal bursts sharing a CPU end at one wake-up: the first is
    # dispatched inside the timer (dispatch_now), the second is an immediate.
    cpu = ProcessorSharingQueue(env)

    def burst(name):
        yield cpu.execute(1.0)
        note(f"burst {name} done")

    env.process(burst("a"))
    env.process(burst("b"))

    # A silent deadline, then a message that beats the next one (_recv_won).
    # Then a tie: the third deadline and a message fall on t=3.25, the
    # deadline first; the wait that follows is armed and beaten within the
    # same instant.
    def reader():
        for delay in (1.0, 5.0, 0.5, 0.5):
            received = yield near.recv_or_deadline(delay)
            note("expired" if received is EXPIRED else f"received {received}")

    env.process(reader())
    env.timeout(2.5).add_callback(lambda _ev: far.send("hello"))
    env.timeout(3.0).add_callback(lambda _ev: far.send("tied"))

    # A process parked on a plain recv(): a message, then EOF, each handed
    # from the timer that carried it to the parked reader.
    left = Connection(near.network, "left")
    right = Connection(near.network, "right")
    left.peer, right.peer = right, left

    def plain_reader():
        try:
            while True:
                note(f"handed {(yield left.recv())}")
        except ConnectionClosed as closed:
            note(f"handed {closed}")

    env.process(plain_reader())
    env.timeout(3.25).add_callback(lambda _ev: right.send("over"))
    env.timeout(3.5).add_callback(lambda _ev: right.close())

    # A failure nobody consumes aborts the run, however it is driven.
    env.timeout(4.0).add_callback(
        lambda _ev: env.event().fail(RuntimeError("nobody listens"))
    )
    env.timeout(4.5).add_callback(lambda _ev: note("after the failure"))
    return env, log


def test_step_and_run_dispatch_identically():
    outcomes = []
    for drive in (Environment.run, run_by_steps):
        env, log = _every_dispatch_shape()
        drive(env, 3.0)
        midway = (list(log), env.now, env.heap_stats())
        with pytest.raises(RuntimeError, match="nobody listens"):
            drive(env, 10.0)
        assert env.now == 4.0
        drive(env, 10.0)  # the kernel survives the abort
        outcomes.append((midway, log, env.now, env.heap_stats()))
    by_run, by_steps = outcomes
    assert by_steps == by_run
    assert by_run[1] == [
        (1.0, "expired"),
        (1.0, "slot woke with go"),
        (1.0, "callback ran"),
        (1.0, "list woke with go"),
        (1.25, "immediate now"),
        (1.25, "heap, same instant"),
        (1.75, "past the dead head"),
        (2.0, "burst a done"),
        (2.0, "burst b done"),
        (2.75, "received hello"),
        (3.25, "expired"),
        (3.25, "received tied"),
        (3.5, "handed over"),
        (3.75, "handed EOF on left"),
        (4.5, "after the failure"),
    ]
    stats = by_run[3]
    # The dead head and the two beaten deadlines.
    assert stats["skipped_cancelled"] == 3
    assert stats["pending"] == stats["dead_pending"] == 0


def test_step_and_run_agree_on_a_churn_cell(monkeypatch):
    by_run = run_cell("churn", 16, 1, 1.0)["result"]
    monkeypatch.setattr(Environment, "run", run_by_steps)
    by_steps = run_cell("churn", 16, 1, 1.0)["result"]
    assert by_steps["schedule_digest"] == by_run["schedule_digest"]
    assert by_steps == by_run  # heap counters, spans and metrics too
