"""Property: the processor-sharing queue matches a closed-form fluid model.

The queue finishes a CPU burst inside its wake-up timer's dispatch and
recycles that timer from one wake-up to the next; none of that may show in
*when* bursts complete, in which order, or in the utilization integral.
The reference below knows nothing about timers or events: it advances a
fluid model from one membership change to the next.

Work may be ``math.inf`` — an open-ended task that holds its share until it
is cancelled.  The fluid model needs no special case for it (``finish`` is
``inf``, later than any membership change); the queue must arm no wake-up
for it, and after every operation nothing may sit in the heap at ``inf``.
"""

import math
import random

import pytest

from repro.sim import Environment, ProcessorSharingQueue

HORIZON = 400.0


def reference(cpus, speed, arrivals, cancels):
    """Fluid egalitarian PS.

    ``arrivals`` is ``[(time, key, work)]`` and ``cancels`` ``[(time, key)]``;
    keys are handed out in arrival order, as the queue's task ids are.
    Returns ``(completions, busy)``: ``[(key, time)]`` in completion order and
    the integral of busy-CPU fraction over ``[0, HORIZON]``.
    """
    ops = sorted(
        [(t, 0, key, work) for t, key, work in arrivals]
        + [(t, 1, key, None) for t, key in cancels]
    )
    active = {}  # key -> [remaining, work]
    completions = []
    now = busy = 0.0
    ops.append((HORIZON, 2, None, None))
    for when, kind, key, work in ops:
        while active:
            n = len(active)
            rate = speed * min(1.0, cpus / n)
            finish = now + min(rem for rem, _ in active.values()) / rate
            if finish > when:
                break
            dt = finish - now
            busy += dt * min(n, cpus) / cpus
            for entry in active.values():
                entry[0] -= rate * dt
            done = sorted(
                (rem, w, k) for k, (rem, w) in active.items() if rem <= 1e-9
            )
            for _, _, k in done:
                del active[k]
                completions.append((k, finish))
            now = finish
        dt = when - now
        if active and dt > 0:
            n = len(active)
            rate = speed * min(1.0, cpus / n)
            busy += dt * min(n, cpus) / cpus
            for entry in active.values():
                entry[0] -= rate * dt
        now = when
        if kind == 0:
            if work > 0:
                active[key] = [work, work]
            else:
                completions.append((key, when))
        elif kind == 1:
            active.pop(key, None)
    return completions, busy


def simulate(cpus, speed, arrivals, cancels, kills):
    """Drive the real queue with the same operations."""
    env = Environment()
    cpu = ProcessorSharingQueue(env, cpus=cpus, speed=speed)
    tasks, procs, completions, resumed_after_kill = {}, {}, [], []

    def check_heap():
        # ``peek`` says inf for an empty heap only; live or cancelled, every
        # entry is at a real instant; and an armed wake-up is for a
        # completion that can happen.
        assert env.peek() < math.inf or env.heap_stats()["pending"] == 0
        assert all(when < math.inf for when, *_ in env._queue)
        assert cpu._timer is None or cpu._timer_deadline < math.inf

    def runner(at, key, work):
        yield env.timeout(at)
        tasks[key] = task = cpu.execute(work, tag=key)
        check_heap()
        yield task
        completions.append((key, env.now))
        if key in killed:
            resumed_after_kill.append(key)  # pragma: no cover - must not happen

    killed = set()

    def canceller(at, key):
        yield env.timeout(at)
        task = tasks[key]
        if key in kills and procs[key].is_alive:
            # A process killed mid-burst: detach it, then reap its compute
            # (what OSProcess._finalize does).
            if not task.processed:
                killed.add(key)
            procs[key].abort()
        cpu.cancel(task)
        check_heap()

    # Arrivals first, in key order: same-instant arrivals then reach the
    # queue in key order, which is the order task ids are handed out in.
    for at, key, work in arrivals:
        procs[key] = env.process(runner(at, key, work))
    for at, key in cancels:
        env.process(canceller(at, key))
    env.run(until=HORIZON)
    assert not resumed_after_kill
    cancelled = {key for _, key in cancels}
    left = {key for _, key, work in arrivals if work == math.inf} - cancelled
    assert {task.tag for task in cpu._tasks.values()} == left
    assert cpu._timer is None and env.peek() == math.inf  # an empty heap
    return cpu, completions


def scenario(seed, open_ended=False):
    """Forty arrivals; with ``open_ended`` about one real burst in five is
    ``inf`` work (drawn from a second stream, so the finite scenarios are
    the same with and without), most of them cancelled later on."""
    rng = random.Random(seed)
    hogs = random.Random(f"open-ended-{seed}") if open_ended else None
    cpus = rng.choice((1, 2))
    speed = rng.choice((1.0, 2.0))
    arrivals, cancels, kills = [], [], set()
    now = 0.0
    for key in range(1, 41):
        # Gaps straddle the mean burst length: the CPU goes idle, runs one
        # burst alone, picks up company and is left alone again, repeatedly.
        now += rng.choice((0.0, rng.uniform(0.0, 3.0), rng.uniform(2.0, 9.0)))
        work = rng.choice((0.0, 1.0, 1.0, rng.uniform(0.05, 6.0)))
        if hogs is not None and work > 0 and hogs.random() < 0.2:
            arrivals.append((now, key, math.inf))
            if hogs.random() < 0.8:
                cancels.append((now + hogs.uniform(0.01, 25.0), key))
                if hogs.random() < 0.5:
                    kills.add(key)
            continue
        arrivals.append((now, key, work))
        if work > 0 and rng.random() < 0.25:
            # Sometimes lands after the burst finished: cancel is a no-op.
            cancels.append((now + rng.uniform(0.01, 1.5 * work / speed), key))
            if rng.random() < 0.5:
                kills.add(key)
    return cpus, speed, arrivals, cancels, kills


def check_against_reference(seed, open_ended):
    cpus, speed, arrivals, cancels, kills = scenario(seed, open_ended)
    cpu, got = simulate(cpus, speed, arrivals, cancels, kills)
    want, busy = reference(cpus, speed, arrivals, cancels)
    assert [key for key, _ in got] == [key for key, _ in want]
    for (key, t_got), (_, t_want) in zip(got, want):
        assert t_got == pytest.approx(t_want, abs=1e-6), key
    assert cpu.utilization() == pytest.approx(busy / HORIZON, abs=1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_queue_matches_fluid_reference(seed):
    check_against_reference(seed, open_ended=False)


@pytest.mark.parametrize("seed", range(40))
def test_queue_with_open_ended_tasks_matches_fluid_reference(seed):
    check_against_reference(seed, open_ended=True)


def membership_changes(arrivals, cancels, completions):
    """``[(time, kind, key)]`` with 0 = finish, 1 = cancel, 2 = arrive."""
    finished = dict(completions)
    real = {key for _, key, work in arrivals if work > 0}
    return sorted(
        [(t, 0, key) for key, t in completions if key in real]
        + [(t, 1, key) for t, key in cancels if key not in finished]
        + [(t, 2, key) for t, key, _ in arrivals if key in real]
    )


def test_scenarios_cover_the_transitions():
    """The seeds above are only evidence if they take a CPU from one burst
    to two and back, cancel a burst that runs alone, and finish bursts
    together."""
    saw = set()
    for seed in range(40):
        cpus, speed, arrivals, cancels, _ = scenario(seed)
        completions, _ = reference(cpus, speed, arrivals, cancels)
        real = {key for _, key, work in arrivals if work > 0}
        changes = membership_changes(arrivals, cancels, completions)
        running = set()
        for _, kind, key in changes:
            if kind == 2:
                if len(running) == 1:
                    saw.add("sole->shared")
                running.add(key)
                continue
            running.discard(key)
            if kind == 0 and len(running) == 1:
                saw.add("shared->sole")
            if kind == 1 and not running:
                saw.add("cancel of a sole burst")
        times = [t for key, t in completions if key in real]
        if len(times) != len(set(times)):
            saw.add("simultaneous finish")
    assert saw == {
        "sole->shared",
        "shared->sole",
        "cancel of a sole burst",
        "simultaneous finish",
    }


def test_open_ended_scenarios_cover_the_transitions():
    """Likewise for ``work = inf``: the seeds must leave a CPU to open-ended
    tasks alone (no timer), run finite bursts beside them, and take the last
    finite burst away — by completion and by cancel, the one path that has
    to cancel an armed wake-up without arming another."""
    saw = set()
    for seed in range(40):
        cpus, speed, arrivals, cancels, _ = scenario(seed, open_ended=True)
        completions, _ = reference(cpus, speed, arrivals, cancels)
        hogs = {key for _, key, work in arrivals if work == math.inf}
        assert not hogs & {key for key, _ in completions}
        running = set()
        for _, kind, key in membership_changes(arrivals, cancels, completions):
            if kind == 2:
                if running and running <= hogs:
                    saw.add("hog joins hogs" if key in hogs else "burst joins hogs")
                elif running and key in hogs:
                    saw.add("hog joins bursts")
                running.add(key)
                continue
            running.discard(key)
            if key in hogs:
                saw.add("hog cancelled beside a burst" if running - hogs
                        else "hog cancelled")
            elif running and running <= hogs:
                saw.add(
                    "last burst finishes beside a hog" if kind == 0
                    else "last burst cancelled beside a hog"
                )
        if running:
            assert running <= hogs
            saw.add("hog left running")
    assert saw == {
        "hog joins hogs",
        "burst joins hogs",
        "hog joins bursts",
        "hog cancelled",
        "hog cancelled beside a burst",
        "last burst finishes beside a hog",
        "last burst cancelled beside a hog",
        "hog left running",
    }


def test_one_kernel_event_and_one_heap_entry_per_sole_burst():
    env = Environment()
    cpu = ProcessorSharingQueue(env)
    bursts = 1000

    def worker():
        for _ in range(bursts):
            yield cpu.execute(1.0)

    env.process(worker())
    env.run()
    stats = env.heap_stats()
    # Beside the bursts: the worker's start and its end.
    assert stats["processed"] == bursts + 2
    assert stats["pushes"] == bursts + 2
    assert env.now == pytest.approx(float(bursts))


def test_heap_hygiene_under_cancelled_sole_bursts():
    env = Environment()
    cpu = ProcessorSharingQueue(env)
    bursts, cancelled = 10_000, 0
    worst_dead = 0

    def worker():
        nonlocal cancelled, worst_dead
        for i in range(bursts):
            task = cpu.execute(1.0)
            if i % 10 == 3:
                yield env.timeout(0.5)
                assert cpu.cancel(task)
                cancelled += 1
            else:
                yield task
            worst_dead = max(worst_dead, env.heap_stats()["dead_pending"])

    env.process(worker())
    baseline = env.heap_stats()["pending"]
    env.run()
    stats = env.heap_stats()
    assert cancelled == bursts // 10
    # A cancelled wake-up is dead weight for half a burst at most: the next
    # burst outlives it, so dead entries never accumulate.
    assert worst_dead <= 1
    assert stats["dead_pending"] == 0
    assert stats["skipped_cancelled"] == cancelled
    assert stats["pending"] == baseline - 1  # the worker's start was pending
    assert stats["heap_high_water"] <= 3
    assert cpu.load == 0
