"""Tests for the CalypsoRuntime library API (multi-phase adaptive programs)."""

import gc
import random
import tracemalloc
from collections import deque
from typing import Any, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.experiments import run_utilization
from repro.os.signals import SIGKILL
from repro.sim import Environment
from repro.systems.calypso import CalypsoRuntime, ParallelStep, UniformSteps
from repro.systems.calypso.api import _Phase


@pytest.fixture
def cluster():
    c = Cluster(ClusterSpec.uniform(4))
    c.machine("n00").fs.write("/home/user/.hosts", "n01\nn02\n")
    return c


def run_app(cluster, body, host="n00"):
    cluster.system_bin.register("testapp", body)
    proc = cluster.run_command(host, ["testapp"])
    cluster.env.run(until=proc.terminated)
    return proc


def test_single_phase_returns_ordered_results(cluster):
    collected = {}

    def app(proc):
        runtime = CalypsoRuntime(proc, target_workers=2)
        runtime.start()
        results = yield from runtime.run_phase(
            [ParallelStep(work=0.5, payload=f"p{i}") for i in range(8)]
        )
        runtime.shutdown()
        collected["results"] = results
        return 0

    proc = run_app(cluster, app)
    assert proc.exit_code == 0
    assert collected["results"] == [f"p{i}" for i in range(8)]
    cluster.assert_no_crashes()


def test_multiple_phases_reuse_worker_pool(cluster):
    counts = {}

    def app(proc):
        runtime = CalypsoRuntime(proc, target_workers=2)
        runtime.start()
        a = yield from runtime.run_phase(
            [ParallelStep(work=0.5, payload=i) for i in range(4)]
        )
        # sequential section
        yield proc.sleep(1.0)
        b = yield from runtime.run_phase(
            [ParallelStep(work=0.5, payload=i * 10) for i in range(4)]
        )
        counts["a"], counts["b"] = a, b
        counts["workers_seen"] = runtime.workers_seen
        runtime.shutdown()
        return 0

    proc = run_app(cluster, app)
    assert proc.exit_code == 0
    assert counts["a"] == [0, 1, 2, 3]
    assert counts["b"] == [0, 10, 20, 30]
    # The pool persisted across phases: exactly two workers ever joined.
    assert counts["workers_seen"] == 2


def test_empty_phase_completes_immediately(cluster):
    def app(proc):
        runtime = CalypsoRuntime(proc, target_workers=1)
        runtime.start()
        results = yield from runtime.run_phase([])
        runtime.shutdown()
        assert results == []
        yield proc.sleep(0)
        return 0

    proc = run_app(cluster, app)
    assert proc.exit_code == 0


def test_custom_worker_program_computes_results(cluster):
    @cluster.system_bin.register("squareworker")
    def squareworker(proc):
        from repro.os.errors import ConnectionClosed

        conn = yield proc.connect(proc.argv[1], int(proc.argv[2]))
        conn.send({"type": "worker_hello", "host": proc.machine.name})
        try:
            while True:
                msg = yield conn.recv()
                if msg.get("type") != "assign":
                    break
                yield proc.compute(float(msg["work"]))
                value = int(msg["payload"]) ** 2
                conn.send(
                    {"type": "result", "step": msg["step"], "value": value}
                )
        except ConnectionClosed:
            return 0
        return 0

    outcome = {}

    def app(proc):
        runtime = CalypsoRuntime(
            proc, target_workers=2, worker_program="squareworker"
        )
        runtime.start()
        results = yield from runtime.run_phase(
            [ParallelStep(work=0.3, payload=i) for i in range(6)]
        )
        runtime.shutdown()
        outcome["results"] = results
        return 0

    proc = run_app(cluster, app)
    assert proc.exit_code == 0
    assert outcome["results"] == [0, 1, 4, 9, 16, 25]
    cluster.assert_no_crashes()


def test_worker_murder_mid_phase_recovered(cluster):
    outcome = {}

    def app(proc):
        runtime = CalypsoRuntime(proc, target_workers=2)
        runtime.start()
        results = yield from runtime.run_phase(
            [ParallelStep(work=1.0, payload=i) for i in range(10)]
        )
        runtime.shutdown()
        outcome["results"] = results
        return 0

    cluster.system_bin.register("testapp", app)
    proc = cluster.run_command("n00", ["testapp"])

    def killer():
        yield cluster.env.timeout(2.5)
        victims = [
            p
            for p in cluster.machine("n01").procs.values()
            if p.argv[0] == "calypso_worker"
        ]
        if victims:
            victims[0].signal(SIGKILL)

    cluster.env.process(killer())
    cluster.env.run(until=proc.terminated)
    assert proc.exit_code == 0
    assert outcome["results"] == list(range(10))  # nothing lost
    cluster.assert_no_crashes()


def test_run_phase_while_running_rejected(cluster):
    def app(proc):
        runtime = CalypsoRuntime(proc, target_workers=1)
        runtime.start()
        gen = runtime.run_phase([ParallelStep(work=5.0)])
        first_event = next(gen)  # phase started, not finished
        try:
            inner = runtime.run_phase([ParallelStep(work=1.0)])
            next(inner)
        except RuntimeError:
            runtime.shutdown()
            yield proc.sleep(0)
            return 0
        return 1

    proc = run_app(cluster, app)
    assert proc.exit_code == 0


def test_shutdown_then_run_rejected(cluster):
    def app(proc):
        runtime = CalypsoRuntime(proc, target_workers=1)
        runtime.start()
        runtime.shutdown()
        try:
            gen = runtime.run_phase([ParallelStep(work=1.0)])
            next(gen)
        except RuntimeError:
            yield proc.sleep(0)
            return 0
        return 1

    proc = run_app(cluster, app)
    assert proc.exit_code == 0


def test_invalid_worker_count():
    cluster = Cluster(ClusterSpec.uniform(2))

    def app(proc):
        try:
            CalypsoRuntime(proc, target_workers=0)
        except ValueError:
            yield proc.sleep(0)
            return 0
        return 1

    cluster.system_bin.register("testapp", app)
    proc = cluster.run_command("n00", ["testapp"])
    cluster.env.run(until=proc.terminated)
    assert proc.exit_code == 0


# -- the sparse phase against the dense one it replaced ----------------------


class _DensePhase:
    """The phase as it was before it became sparse, kept as the oracle: one
    slot per declared step in four lists and a deque.  ``assign`` and
    ``back_out`` are what ``CalypsoRuntime._session`` did to it inline."""

    def __init__(self, env, steps: List[ParallelStep]) -> None:
        self.steps = steps
        self.results: List[Any] = [None] * len(steps)
        self.done = [False] * len(steps)
        self.assignments = [0] * len(steps)
        self.completed = 0
        self.finished = env.event()
        self._dispatch = deque(range(len(steps)))
        if not steps:
            self.finished.succeed()

    def next_index(self) -> Optional[int]:
        while True:
            while self._dispatch:
                index = self._dispatch.popleft()
                if not self.done[index]:
                    return index
            incomplete = [i for i in range(len(self.steps)) if not self.done[i]]
            if not incomplete:
                return None
            incomplete.sort(key=lambda i: self.assignments[i])
            self._dispatch = deque(incomplete)

    def complete(self, index: int, value: Any) -> None:
        if self.done[index]:
            return
        self.done[index] = True
        self.results[index] = value
        self.completed += 1
        if self.completed >= len(self.steps) and not self.finished.triggered:
            self.finished.succeed()

    def assign(self) -> Optional[int]:
        index = self.next_index()
        if index is not None:
            self.assignments[index] += 1
        return index

    def back_out(self, index: int) -> None:
        self.assignments[index] = max(0, self.assignments[index] - 1)
        self._dispatch.append(index)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([0, 1, 7, 60]),
    workers=st.integers(1, 70),
)
def test_sparse_phase_dispatches_like_the_dense_one(seed, n, workers):
    """Same index stream, same finishing operation, same ordered results,
    under losses, silent departures, duplicates and late results, through
    the eager tail (more workers than steps left)."""
    rng = random.Random(seed)
    env = Environment()
    steps = [ParallelStep(1.0, payload=i) for i in range(n)]
    dense, sparse = _DensePhase(env, steps), _Phase(env, steps)
    holding: List[Optional[int]] = [None] * workers
    delivered: List[int] = []

    def both_complete(index, value):
        dense.complete(index, value)
        sparse.complete(index, value)
        assert dense.finished.triggered == sparse.finished.triggered

    for op in range(40 * (n + 1)):
        worker = rng.randrange(workers)
        index = holding[worker]
        roll = rng.random()
        if index is None:
            index = dense.assign()
            assert sparse.next_index() == index
            holding[worker] = index
        elif roll < 0.55:
            both_complete(index, ("first", index, op))
            delivered.append(index)
            holding[worker] = None
        elif roll < 0.80:  # the worker is lost mid-step
            dense.back_out(index)
            sparse.back_out(index)
            holding[worker] = None
        elif roll < 0.90:  # worker_bye: neither a result nor a back-out
            holding[worker] = None
        elif delivered:  # a late result for a step somebody else delivered
            both_complete(rng.choice(delivered), ("late", op))
    # Whatever is left is drained by one tireless worker.
    while not dense.finished.triggered:
        index = dense.assign()
        assert index is not None and sparse.next_index() == index
        both_complete(index, ("drain", index))
    assert sparse.finished.triggered
    assert sparse.next_index() is None and dense.next_index() is None
    assert sparse.ordered_results() == dense.results
    assert not sparse._in_flight


def test_phase_state_does_not_grow_with_declared_steps():
    env = Environment()
    steps = UniformSteps(10**7, 1.0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        phase = _Phase(env, steps)
        first = [phase.next_index() for _ in range(8)]
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == list(range(8))
    assert after - before < 64 * 1024


def test_utilization_run_keeps_only_the_steps_in_flight():
    """The 5-hour experiment declares a million steps; what is alive after
    ten simulated minutes is at most one step per worker session."""
    machines = 8
    gc.collect()
    gc.disable()  # keep the dead cluster: anything it held is counted
    try:
        run_utilization(horizon=600.0, machines=machines)
        alive = sum(
            isinstance(obj, ParallelStep) for obj in gc.get_objects()
        )
    finally:
        gc.enable()
    assert alive <= machines


def test_uniform_steps_reads_like_the_list_it_stands_for():
    steps = UniformSteps(5, 2.5)
    assert len(steps) == 5
    assert list(steps) == [ParallelStep(2.5, payload=i) for i in range(5)]
    with pytest.raises(IndexError):
        steps[5]
    with pytest.raises(ValueError):
        UniformSteps(-1, 1.0)


class _SquaresOnDemand:
    """A sized, indexable step source backed by a generator function."""

    def __init__(self, n):
        self.n = n
        self.built = 0

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        self.built += 1
        return next(
            ParallelStep(0.25, payload=i * i) for i in range(index, self.n)
        )


def test_lazy_sequence_generator_and_list_give_equal_results(cluster):
    outcome = {}
    lazy = _SquaresOnDemand(9)

    def app(proc):
        runtime = CalypsoRuntime(proc, target_workers=2)
        runtime.start()
        outcome["list"] = yield from runtime.run_phase(
            [ParallelStep(0.25, payload=i * i) for i in range(9)]
        )
        outcome["lazy"] = yield from runtime.run_phase(lazy)
        outcome["generator"] = yield from runtime.run_phase(
            ParallelStep(0.25, payload=i * i) for i in range(9)
        )
        runtime.shutdown()
        return 0

    proc = run_app(cluster, app)
    assert proc.exit_code == 0
    assert outcome["list"] == [i * i for i in range(9)]
    assert outcome["lazy"] == outcome["list"] == outcome["generator"]
    # One read per assignment, nothing up front: the nine steps, and the
    # duplicate an idle worker is given in the eager tail.
    assert 9 <= lazy.built <= 9 + 2
    cluster.assert_no_crashes()


def test_result_for_a_step_that_does_not_exist_is_rejected():
    phase = _Phase(Environment(), UniformSteps(3, 1.0))
    with pytest.raises(IndexError):
        phase.complete(3, "x")
