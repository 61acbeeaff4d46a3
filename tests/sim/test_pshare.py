"""Unit tests for the processor-sharing CPU model."""

import math

import pytest

from repro.sim import Environment, ProcessorSharingQueue


@pytest.fixture
def env():
    return Environment()


def run_and_record(env, cpu, jobs):
    """Start (delay, work, name) jobs; return {name: completion_time}."""
    done_at = {}

    def runner(delay, work, name):
        yield env.timeout(delay)
        yield cpu.execute(work, tag=name)
        done_at[name] = env.now

    for delay, work, name in jobs:
        env.process(runner(delay, work, name))
    env.run()
    return done_at


def test_single_task_nominal_time(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    done = run_and_record(env, cpu, [(0.0, 6.5, "loop")])
    assert done["loop"] == pytest.approx(6.5)


def test_two_tasks_share_one_cpu(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    done = run_and_record(env, cpu, [(0.0, 1.0, "a"), (0.0, 1.0, "b")])
    # Each progresses at rate 1/2 while both run -> both done at t=2.
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(2.0)


def test_two_tasks_two_cpus_no_slowdown(env):
    cpu = ProcessorSharingQueue(env, cpus=2)
    done = run_and_record(env, cpu, [(0.0, 1.0, "a"), (0.0, 1.0, "b")])
    assert done["a"] == pytest.approx(1.0)
    assert done["b"] == pytest.approx(1.0)


def test_unequal_tasks_processor_sharing_math(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    done = run_and_record(env, cpu, [(0.0, 1.0, "short"), (0.0, 3.0, "long")])
    # Both at rate 1/2 until short finishes at t=2 (has done 1.0 work);
    # long then has 2.0 left at rate 1 -> finishes at t=4.
    assert done["short"] == pytest.approx(2.0)
    assert done["long"] == pytest.approx(4.0)


def test_late_arrival_slows_running_task(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    done = run_and_record(env, cpu, [(0.0, 2.0, "first"), (1.0, 2.0, "second")])
    # first: 1.0 work by t=1; shares until t=3 (each +1.0); first has 0 left
    # at t=3. second then has 1.0 left alone -> t=4.
    assert done["first"] == pytest.approx(3.0)
    assert done["second"] == pytest.approx(4.0)


def test_speed_factor_scales_time(env):
    cpu = ProcessorSharingQueue(env, cpus=1, speed=2.0)
    done = run_and_record(env, cpu, [(0.0, 6.0, "x")])
    assert done["x"] == pytest.approx(3.0)


def test_zero_work_completes_immediately(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    ev = cpu.execute(0.0)
    assert ev.triggered and ev.ok


def test_negative_work_rejected(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    with pytest.raises(ValueError):
        cpu.execute(-1.0)
    with pytest.raises(ValueError):
        cpu.execute(math.nan)
    assert cpu.load == 0


def test_cancel_removes_task(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    done_at = {}

    def victim():
        yield cpu.execute(10.0, tag="victim")
        done_at["victim"] = env.now  # pragma: no cover - must not happen

    def other():
        yield cpu.execute(4.0, tag="other")
        done_at["other"] = env.now

    env.process(victim())
    env.process(other())

    def killer():
        yield env.timeout(2.0)
        # Find the victim's task via the queue's internals.
        victim_task = [t for t in cpu._tasks.values() if t.tag == "victim"][0]
        assert cpu.cancel(victim_task)

    env.process(killer())
    env.run(until=100.0)
    # other: shared (rate 1/2) for 2s -> 1.0 done; then alone: 3.0 more.
    assert done_at == {"other": pytest.approx(5.0)}


def test_cancel_finished_task_returns_false(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    ev = cpu.execute(1.0)
    env.run(until=2.0)
    assert cpu.cancel(ev) is False


def test_load_tracks_membership(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    cpu.execute(5.0)
    cpu.execute(5.0)
    assert cpu.load == 2
    env.run(until=20.0)
    assert cpu.load == 0


def test_utilization_idle_machine_is_zero(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    env.process(_tick(env, 10.0))
    env.run()
    assert cpu.utilization() == pytest.approx(0.0)


def _tick(env, t):
    yield env.timeout(t)


def test_utilization_half_busy(env):
    cpu = ProcessorSharingQueue(env, cpus=1)

    def worker():
        yield cpu.execute(5.0)
        yield env.timeout(5.0)

    env.process(worker())
    env.run()
    assert env.now == pytest.approx(10.0)
    assert cpu.utilization() == pytest.approx(0.5)


def test_utilization_multi_cpu_fraction(env):
    cpu = ProcessorSharingQueue(env, cpus=4)

    def worker():
        yield cpu.execute(10.0)

    env.process(worker())
    env.run()
    # 1 of 4 CPUs busy for the whole run.
    assert cpu.utilization() == pytest.approx(0.25)


def test_reset_accounting(env):
    cpu = ProcessorSharingQueue(env, cpus=1)

    def worker():
        yield cpu.execute(4.0)
        cpu.reset_accounting()
        yield env.timeout(6.0)

    env.process(worker())
    env.run()
    assert cpu.utilization() == pytest.approx(0.0)


def test_drain_estimate_empty(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    assert cpu.drain_estimate() == 0.0


def test_drain_estimate_matches_simulation(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    cpu.execute(1.0, tag="short")
    cpu.execute(3.0, tag="long")
    # From the PS math above: last completion at t=4.
    assert cpu.drain_estimate() == pytest.approx(4.0)
    env.run()
    assert env.now == pytest.approx(4.0)


def test_invalid_construction(env):
    with pytest.raises(ValueError):
        ProcessorSharingQueue(env, cpus=0)
    with pytest.raises(ValueError):
        ProcessorSharingQueue(env, cpus=1, speed=0.0)


def test_drain_estimate_cache_stays_correct_across_changes(env):
    """The cached remaining-work ordering must be invisible to callers:
    repeated polls, arrivals, partial drains, and completions all yield the
    same estimate a cache-free recomputation would."""
    cpu = ProcessorSharingQueue(env, cpus=1)

    def fresh_estimate():
        order = sorted(t.remaining for t in cpu._tasks.values())
        t = prev = 0.0
        for idx, remaining in enumerate(order):
            active = len(order) - idx
            rate = cpu.speed * min(1.0, cpu.cpus / active)
            t += (remaining - prev) / rate
            prev = remaining
        return t

    cpu.execute(6.0)
    first = cpu.drain_estimate()
    assert cpu.drain_estimate() == first  # cached poll, same answer
    assert first == pytest.approx(fresh_estimate())

    cpu.execute(2.0)  # arrival invalidates the cached ordering
    assert cpu.drain_estimate() == pytest.approx(fresh_estimate())

    env.run(until=1.0)  # uniform drain keeps the cached order valid
    assert cpu.drain_estimate() == pytest.approx(fresh_estimate())
    assert cpu.drain_estimate() == pytest.approx(3.0 + 4.0)

    env.run(until=4.5)  # the short task completed: membership changed
    assert cpu.drain_estimate() == pytest.approx(fresh_estimate())
    env.run()
    assert cpu.drain_estimate() == 0.0


# -- open-ended tasks (work = inf) ------------------------------------------


def no_heap_entry_at_inf(env):
    """Nothing, live or cancelled, sits in the event heap at ``inf``."""
    return all(when < math.inf for when, *_ in env._queue)


def test_open_ended_tasks_alone_arm_no_timer(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    first = cpu.execute(math.inf)
    second = cpu.execute(math.inf)
    assert cpu.load == 2 and cpu.rate() == 0.5
    assert cpu._timer is None
    assert env.peek() == math.inf  # an empty heap, not an entry at inf
    env.run()  # returns: nothing is scheduled
    assert env.heap_stats()["pending"] == 0
    assert env.now == 0.0
    assert not first.triggered and not second.triggered
    assert cpu.cancel(first) and cpu.cancel(second)
    assert cpu.load == 0 and cpu._timer is None


def test_finite_task_beside_open_ended_takes_twice_its_work(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    hog = cpu.execute(math.inf, tag="hog")
    done = run_and_record(env, cpu, [(0.0, 3.0, "job")])
    assert done["job"] == pytest.approx(6.0)
    # The hog is alone again: no wake-up left behind, the run ended by itself.
    assert cpu.load == 1 and cpu._timer is None
    assert env.heap_stats()["pending"] == 0
    assert not hog.triggered and hog.remaining == math.inf


def test_cancelling_the_last_finite_task_cancels_the_armed_timer(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    cpu.execute(math.inf)
    job = cpu.execute(3.0)
    timer = cpu._timer
    assert timer is not None and cpu._timer_deadline == pytest.approx(6.0)
    env.run(until=1.0)
    assert cpu.cancel(job)
    # Cancelled, not kept to fire early and not re-armed at now + inf.
    assert cpu._timer is None and timer._cancelled
    stats = env.heap_stats()
    assert (stats["pending"], stats["dead_pending"]) == (1, 1)
    assert no_heap_entry_at_inf(env)
    env.run()
    stats = env.heap_stats()
    assert (stats["pending"], stats["skipped_cancelled"]) == (0, 1)
    assert env.now == 1.0


def test_open_ended_arrival_keeps_a_timer_that_is_still_needed(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    job = cpu.execute(2.0)
    env.run(until=1.0)
    cpu.execute(math.inf)  # halves the job's rate: 1.0 left takes 2.0
    assert cpu._timer is not None
    env.run()
    assert job.processed and env.now == pytest.approx(3.0)
    assert cpu._timer is None and no_heap_entry_at_inf(env)


@pytest.mark.parametrize("cpus, expected", [(1, 1.0), (2, 0.5)])
def test_utilization_of_an_open_ended_task_is_exact_and_costs_no_events(
    env, cpus, expected
):
    cpu = ProcessorSharingQueue(env, cpus=cpus)
    cpu.execute(math.inf)
    processed = env.heap_stats()["processed"]
    env.run(until=10_000.0)
    assert env.heap_stats()["processed"] == processed
    assert cpu.utilization() == expected  # exact: one dt, no tick dust
    env.run(until=20_000.0)
    assert cpu.utilization() == expected
    assert env.heap_stats()["processed"] == processed


def test_drain_estimate_is_inf_while_an_open_ended_task_runs(env):
    cpu = ProcessorSharingQueue(env, cpus=1)
    cpu.execute(2.0)
    hog = cpu.execute(math.inf)
    assert cpu.drain_estimate() == math.inf
    cpu.execute(math.inf)  # inf - inf between two of them must not be nan
    assert cpu.drain_estimate() == math.inf
    env.run(until=100.0)
    assert cpu.load == 2 and cpu.drain_estimate() == math.inf
    for task in list(cpu._tasks.values()):
        cpu.cancel(task)
    assert cpu.drain_estimate() == 0.0 and not hog.triggered
