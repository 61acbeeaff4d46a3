"""The simulation environment: clock, event heap and run loop.

Pending events live in one binary heap of ``(time, priority, seq, event)``
entries and are processed in that strict total order; ``seq`` is a global
insertion counter, so a run is a pure function of its seed.  Completions
known to occur at the current instant may skip the heap through a FIFO of
immediates (:meth:`Environment.deliver_now`).

Processing an event is one sequence, written as
:meth:`Environment._dispatch` and inlined exactly once more, in the hot loop
of :meth:`Environment.run`.  DESIGN.md §15 records why there is one heap.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop
from typing import Any, Deque, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import (
    NORMAL,
    AllOf,
    AnyOf,
    Event,
    Timeout,
    resume_subscribers,
)
from repro.sim.process import Process
from repro.sim.rng import SimRandom


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when the event queue is dry."""


class StopSimulation(Exception):
    """Raised to halt :meth:`Environment.run` when its ``until`` event fires."""


class Environment:
    """Owns simulated time and the pending-event heap.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds).
    seed:
        Seed for the environment-wide random stream (see
        :class:`~repro.sim.rng.SimRandom`).  Every source of randomness in a
        simulation must derive from this stream for runs to be reproducible.
    """

    #: Below this heap size, compaction is never worth the heapify.
    COMPACT_MIN = 64

    def __init__(self, initial_time: float = 0.0, seed: int = 0) -> None:
        self._now = float(initial_time)
        #: The heap.  The inlined push sites in events.py write through this
        #: name and the run loop holds an alias across callbacks, so it is
        #: never replaced with a new list (compaction mutates in place).
        self._queue: List[Tuple[float, int, int, Event]] = []
        #: Triggered events to process *now*, ahead of the heap: completions
        #: known to occur at the current instant skip the O(log n) heap
        #: round-trip.  Their callbacks still run from the top-level loop
        #: (never nested inside another event's callbacks).
        self._immediate: Deque[Event] = deque()
        self._eid = 0
        self._active_process: Optional[Process] = None
        self.rng = SimRandom(seed)
        #: Cancelled events still occupying heap entries (lazy deletion).
        self._dead = 0
        # Kernel counters, exposed via heap_stats() for benchmarks.
        self._processed = 0
        self._skipped = 0
        self._compactions = 0
        self._heap_high_water = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- scheduling ------------------------------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Queue ``event`` for processing after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._eid += 1
        queue = self._queue
        heapq.heappush(queue, (self._now + delay, priority, self._eid, event))
        if event._cancelled:
            # Triggering an event cancelled while still pending: the fresh
            # heap entry is born dead.
            self._dead += 1
        if len(queue) > self._heap_high_water:
            self._heap_high_water = len(queue)

    def _note_cancelled(self) -> None:
        """A scheduled event was cancelled; compact when dead entries win."""
        self._dead += 1
        pending = len(self._queue)
        if self._dead * 2 > pending and pending >= self.COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap in one O(n) pass.

        Mutates the heap *in place*: the run loop holds a local alias to
        the list across callback execution, and compaction can run from
        inside a callback.
        """
        queue = self._queue
        queue[:] = [e for e in queue if not e[3]._cancelled]
        heapq.heapify(queue)
        self._dead = 0
        self._compactions += 1

    def deliver_now(self, event: Event) -> None:
        """Queue a triggered event for processing at the current instant.

        The fast-path alternative to ``succeed()``-style scheduling for
        completions that must run *now*: the event skips the heap and is
        processed (FIFO among immediate events) before the next heap pop.
        The caller must have set ``_ok``/``_value`` already.
        """
        self._immediate.append(event)

    def peek(self) -> float:
        """Time of the next *live* scheduled event, or ``inf`` if none.

        Cancelled entries at the head are purged on the way — ``run`` relies
        on peek to decide whether the next event lies past its horizon, so a
        dead head must never stand in for a live event beyond it.
        """
        if self._immediate:
            return self._now
        queue = self._queue
        while queue and queue[0][3]._cancelled:
            heappop(queue)
            self._dead -= 1
            self._skipped += 1
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Process exactly one event, advancing the clock to its time.

        Cancelled entries encountered on the way are discarded without
        running callbacks (and without consuming the step).
        """
        imm = self._immediate
        while imm:
            event = imm.popleft()
            if not event._cancelled:
                break
            self._skipped += 1
        else:
            self.peek()  # purges cancelled heads
            if not self._queue:
                raise EmptySchedule()
            self._now, _, _, event = heappop(self._queue)
        self._processed += 1
        self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        """Process one triggered event: the kernel's dispatch sequence.

        Take the waiter and the callbacks, mark the event processed, resume
        the waiter, run the callbacks, and abort the run loudly on a failure
        nobody consumed.  :meth:`step` and
        :meth:`~repro.sim.events.Event.dispatch_now` call this; the hot loop
        of :meth:`run` holds the only other copy.
        """
        waiter = event._waiter
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        event._waiter = None
        resume_subscribers(waiter, callbacks, event)
        if not event._ok and not event._defused:
            # An exception nobody consumed: abort the run loudly.
            raise event._value

    def heap_stats(self) -> dict:
        """Kernel counters: the ``heap`` block of a ``run_cell`` result, the
        ``kernel`` block of the broker's ``stats`` RPC and rbbench's exact
        ``sim.*`` counters.

        All of them are functions of the simulation alone — two runs of one
        seed agree on every number.
        """
        return {
            "pushes": self._eid,
            "processed": self._processed,
            "skipped_cancelled": self._skipped,
            "compactions": self._compactions,
            "heap_high_water": self._heap_high_water,
            "pending": len(self._queue),
            "dead_pending": self._dead,
        }

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or queue exhaustion).

        * ``until is None`` — run until no events remain.
        * ``until`` is a number — run until the clock reaches it.
        * ``until`` is an :class:`Event` — run until it is processed and
          return its value (raising if it failed).
        """
        stop_at = None
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.processed:
                    if stop_event.ok:
                        return stop_event.value
                    raise stop_event.value
                stop_event.add_callback(self._stop_callback)
            else:
                stop_at = float(until)
                if stop_at < self._now:
                    raise ValueError(
                        f"until={stop_at!r} is in the past (now={self._now!r})"
                    )
        # The loop below is step() with peek() and _dispatch() fused in: one
        # heap access and no per-event function calls.  This is the single
        # hottest loop in the whole system — mirror any semantic change in
        # step()/peek()/_dispatch() (tests/sim/test_kernel_edges.py runs the
        # two against each other).
        queue = self._queue  # safe alias: _compact() mutates in place
        imm = self._immediate
        pop = heappop
        try:
            while True:
                if imm:
                    event = imm.popleft()
                    if event._cancelled:
                        self._skipped += 1
                        continue
                else:
                    while queue and queue[0][3]._cancelled:
                        pop(queue)
                        self._dead -= 1
                        self._skipped += 1
                    if not queue:
                        if stop_at is not None:
                            self._now = stop_at
                        return None
                    entry = queue[0]
                    if stop_at is not None and entry[0] > stop_at:
                        self._now = stop_at
                        return None
                    pop(queue)
                    event = entry[3]
                    self._now = entry[0]
                self._processed += 1
                # Mirror _dispatch.
                waiter = event._waiter
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                if waiter is not None:
                    event._waiter = None
                    waiter._resume(event)
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation:
            assert stop_event is not None
            if stop_event.ok:
                return stop_event.value
            raise stop_event.value from None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation()

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new simulated process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when every given event has succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any given event succeeds."""
        return AnyOf(self, events)

    def __repr__(self) -> str:
        return f"<Environment now={self._now:.6f} pending={len(self._queue)}>"
