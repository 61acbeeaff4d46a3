"""Edge-case tests for the kernel: abort, defuse, condition failures."""

import pytest

from repro.sim import Environment, EventAborted, Interrupt


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
