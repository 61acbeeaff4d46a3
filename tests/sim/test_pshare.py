"""Unit tests for the processor-sharing CPU model."""

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
