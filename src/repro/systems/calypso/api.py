"""Calypso as a library: write adaptive parallel programs, not CLIs.

Real Calypso programs interleave sequential code with *parallel steps*; the
runtime keeps a worker pool across steps, schedules eagerly, and survives
workers appearing and disappearing.  :class:`CalypsoRuntime` gives simulated
programs the same shape::

    def my_app(proc):
        runtime = CalypsoRuntime(proc, target_workers=4)
        runtime.start()
        # parallel phase 1: 20 steps of 2 CPU-seconds
        results = yield from runtime.run_phase(
            [ParallelStep(work=2.0, payload=i) for i in range(20)]
        )
        # ... sequential code ...
        # parallel phase 2: a million uniform steps, none of them built
        # before a worker asks for it
        results2 = yield from runtime.run_phase(UniformSteps(10**6, 30.0))
        runtime.shutdown()

A phase takes any sized, indexable sequence of steps and reads ``steps[i]``
when step ``i`` is assigned, so what the runtime holds grows with the steps
in flight, not with the steps declared.

Workers are acquired through ``rsh`` against the hostfile (symbolic
``anylinux`` under a broker), join anonymously, stay connected across
phases, and may be revoked at any time — a lost worker's step is simply
re-run elsewhere (eager scheduling / TIES idempotence).

A custom ``worker_program`` may be supplied to compute real results from
step payloads; the stock ``calypso_worker`` burns the CPU time and echoes
the payload back.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional

from repro.os.errors import ConnectionClosed
from repro.systems.hostfile import read_hostfile


@dataclass
class ParallelStep:
    """One unit of a parallel phase."""

    work: float
    payload: Any = None


class UniformSteps(Sequence):
    """``n`` steps of equal ``work``, made when asked for, never stored.

    ``UniformSteps(n, work)[i]`` is ``ParallelStep(work, payload=i)`` — what
    ``[ParallelStep(work, payload=i) for i in range(n)]`` holds, in the
    memory of a ``range``.  A long-running adaptive job declares far more
    steps than it will ever have in flight; this is how it does so for free.
    """

    __slots__ = ("n", "work")

    def __init__(self, n: int, work: float) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        self.n = n
        self.work = work

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int) -> ParallelStep:
        if not 0 <= index < self.n:
            raise IndexError(index)
        return ParallelStep(self.work, payload=index)


class _Phase:
    """Scheduling state of one running parallel phase.

    What is held grows with the steps handed out, not with the steps
    declared: a frontier counter for the steps never yet assigned, a queue
    of steps to hand out again, the assignment counts of the steps in
    flight (assigned at least once, no result yet) and the results so far.

    Dispatch order (eager scheduling, part of the simulated behaviour):
    fresh indices ``0..n-1`` first, then backed-out steps in back-out
    order, then — once everything is assigned — the steps still in flight
    by ``(assignments, index)``, as often as needed.
    """

    def __init__(self, env, steps: Sequence) -> None:
        self.steps = steps
        self.n = len(steps)
        self.results: Dict[int, Any] = {}
        self.finished = env.event()
        self._fresh = 0
        self._requeue: Deque[int] = deque()
        self._in_flight: Dict[int, int] = {}
        if not self.n:
            self.finished.succeed()

    def next_index(self) -> Optional[int]:
        """The step to assign next (counted as assigned), or None when
        every step has a result.  Duplicates are handed out once everything
        is assigned: the first result wins."""
        in_flight = self._in_flight
        while self._fresh < self.n:
            index = self._fresh
            self._fresh += 1
            if index not in self.results:
                in_flight[index] = 1
                return index
        requeue = self._requeue
        while True:
            while requeue:
                index = requeue.popleft()
                if index in in_flight:
                    in_flight[index] += 1
                    return index
            if not in_flight:
                return None
            requeue.extend(sorted(in_flight, key=lambda i: (in_flight[i], i)))

    def back_out(self, index: int) -> None:
        """The worker holding ``index`` was lost: hand the step out again."""
        assignments = self._in_flight.get(index)
        if assignments is not None:  # else a duplicate already delivered it
            self._in_flight[index] = max(0, assignments - 1)
            self._requeue.append(index)

    def complete(self, index: int, value: Any) -> None:
        if index in self.results:
            return  # duplicate from eager scheduling: first result won
        if not 0 <= index < self.n:
            raise IndexError(f"no step {index} in a phase of {self.n}")
        self.results[index] = value
        self._in_flight.pop(index, None)
        if len(self.results) >= self.n and not self.finished.triggered:
            self.finished.succeed()

    def ordered_results(self) -> List[Any]:
        """Results by step index (of a finished phase)."""
        results = self.results
        return [results[index] for index in range(self.n)]


class CalypsoRuntime:
    """An adaptive worker pool serving successive parallel phases."""

    def __init__(
        self,
        proc,
        target_workers: int,
        worker_program: str = "calypso_worker",
    ) -> None:
        if target_workers < 1:
            raise ValueError("target_workers must be >= 1")
        self.proc = proc
        self.env = proc.env
        self.target_workers = target_workers
        self.worker_program = worker_program
        self.current: Optional[_Phase] = None
        self.stopped = False
        self._phase_opened = self.env.event()  # re-armed per phase
        self._listener = None
        self._port = None
        self.workers_seen = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Open the pool: listener, grow slots, accept loop."""
        proc = self.proc
        self._port = proc.machine.network.ephemeral_port(proc.machine)
        self._listener = proc.listen(self._port)
        hosts = read_hostfile(proc)
        for slot in range(self.target_workers):
            proc.thread(
                self._grow_slot(hosts[slot % len(hosts)]),
                name=f"calypso-grow{slot}",
            )
        proc.thread(self._accept_loop(), name="calypso-accept")

    def run_phase(self, steps: Iterable[ParallelStep]):
        """Generator: run one parallel phase to completion, return results
        (ordered by step index).

        ``steps`` is any sized, indexable sequence — a list, or a lazy one
        such as :class:`UniformSteps` — read one ``steps[i]`` per assignment
        and neither copied nor changed; it must stay as it is until the
        phase ends.  A one-shot iterable is read into a list first."""
        if self.stopped:
            raise RuntimeError("runtime already shut down")
        if self.current is not None and not self.current.finished.triggered:
            raise RuntimeError("a phase is already running")
        if not hasattr(steps, "__len__"):
            steps = list(steps)
        phase = _Phase(self.env, steps)
        self.current = phase
        # Wake the sessions idling between phases.
        opened, self._phase_opened = self._phase_opened, self.env.event()
        if not opened.triggered:
            opened.succeed()
        yield phase.finished
        self.current = None
        return phase.ordered_results()

    def shutdown(self) -> None:
        """Dismiss the pool (workers see EOF and exit)."""
        self.stopped = True
        if not self._phase_opened.triggered:
            self._phase_opened.succeed()
        if self._listener is not None:
            self._listener.close()

    # -- internals ---------------------------------------------------------

    def _grow_slot(self, target_host):
        proc = self.proc
        while not self.stopped:
            rsh = proc.spawn(
                [
                    "rsh",
                    target_host,
                    self.worker_program,
                    proc.machine.name,
                    str(self._port),
                ]
            )
            yield proc.wait(rsh)
            if self.stopped:
                return
            yield proc.sleep(0.25)

    def _accept_loop(self):
        proc = self.proc
        while True:
            try:
                conn = yield self._listener.accept()
            except ConnectionClosed:
                return
            self.workers_seen += 1
            proc.thread(
                self._session(conn), name=f"calypso-w{self.workers_seen}"
            )

    def _session(self, conn):
        from repro.obs import context_from_environ, tracer_of

        try:
            hello = yield conn.recv()
        except ConnectionClosed:
            conn.close()
            return
        if hello.get("type") != "worker_hello":
            conn.close()
            return
        # One span per worker lifetime (join -> loss/shutdown), parented
        # under the master program's context.
        span = tracer_of(self.proc).start(
            "calypso.worker",
            parent=context_from_environ(self.proc.environ),
            actor=f"calypso:{self.proc.machine.name}",
            host=hello.get("host"),
        )
        steps_done = 0
        assigned: Optional[int] = None
        phase: Optional[_Phase] = None
        try:
            while not self.stopped:
                phase = self.current
                if phase is None or phase.finished.triggered:
                    yield self._phase_opened  # idle between phases
                    continue
                index = phase.next_index()
                if index is None:
                    yield self._phase_opened
                    continue
                assigned = index
                step = phase.steps[index]
                conn.send(
                    {
                        "type": "assign",
                        "step": index,
                        "work": step.work,
                        "payload": step.payload,
                    }
                )
                reply = yield conn.recv()
                assigned = None
                if reply.get("type") == "result":
                    phase.complete(int(reply["step"]), reply.get("value"))
                    steps_done += 1
                elif reply.get("type") == "worker_bye":
                    break
        except ConnectionClosed:
            # Worker lost mid-step: back out the assignment; eager
            # scheduling re-runs the step on another worker.
            if assigned is not None and phase is not None:
                phase.back_out(assigned)
            span.end(steps=steps_done, outcome="lost")
        if not span.finished:
            span.end(steps=steps_done, outcome="dismissed")
        conn.close()
