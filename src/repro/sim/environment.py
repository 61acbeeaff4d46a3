"""The simulation environment: clock, partitioned event lanes and run loop.

The kernel's pending-event state lives in :class:`Lane` objects — each lane
owns one binary heap of ``(time, priority, seq, event)`` entries.  A default
environment has a single lane and behaves exactly like the classic serial
kernel.  With ``lanes=N`` the machine population of a simulated cluster is
partitioned across lanes (see :mod:`repro.cluster.builder`): every lane gets
its own, much smaller heap, and the run loop interleaves lanes in the exact
serial total order ``(time, priority, seq)`` — the global sequence counter is
shared, so an N-lane run is event-for-event identical to a 1-lane run while
paying ``O(log(H/N))`` per heap operation and dispatching *runs* of
consecutive same-lane events without re-scanning the other lanes (the
conservative window: a lane provably holds the global minimum until another
lane's head could undercut it or a cross-lane push lands).

True windowed parallelism across OS processes — lanes advancing to
``min(neighbor clocks) + lookahead`` and exchanging timestamped envelopes —
lives in :mod:`repro.sim.lanes`; it requires partitions that share no Python
state, which the in-process cluster simulation deliberately does not enforce.
See DESIGN.md §15 for the model and its safety argument.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop
from typing import Any, Deque, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import NORMAL, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import SimRandom


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class StopSimulation(Exception):
    """Raised to halt :meth:`Environment.run` when its ``until`` event fires."""


class Lane:
    """One partition's share of the pending-event state.

    A lane owns its heap plus the per-partition observability the broker's
    ``stats`` RPC reports: the clock of its most recent dispatch (lane clock
    skew = spread of these across lanes), a sampled heap high-water mark and
    the window-stall counter (times a batched run of this lane's events was
    cut short by another lane).  In single-lane mode the per-lane numbers
    mirror the environment-wide counters.
    """

    __slots__ = ("id", "heap", "high_water", "clock", "processed", "window_stalls")

    def __init__(self, lane_id: int, clock: float) -> None:
        self.id = lane_id
        self.heap: List[Tuple[float, int, int, Event]] = []
        #: Sampled at dispatch boundaries and stats time (exact enough for
        #: capacity planning; the *global* high-water mark is exact).
        self.high_water = 0
        #: Simulated time of the last event dispatched from this lane.
        self.clock = clock
        self.processed = 0
        #: Times a batched same-lane run was broken by a cross-lane push or
        #: by another lane's head undercutting this lane's next event.
        self.window_stalls = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Lane {self.id} pending={len(self.heap)} clock={self.clock:.6f}>"


class Environment:
    """Owns simulated time and the pending-event lanes.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds).
    seed:
        Seed for the environment-wide random stream (see
        :class:`~repro.sim.rng.SimRandom`).  Every source of randomness in a
        simulation must derive from this stream for runs to be reproducible.
    lanes:
        Number of event lanes.  ``1`` (the default) is the classic serial
        kernel; ``N > 1`` partitions the heap while preserving the serial
        total order exactly (see module docstring).
    """

    #: Below this heap size, compaction is never worth the heapify.
    COMPACT_MIN = 64

    def __init__(
        self, initial_time: float = 0.0, seed: int = 0, lanes: int = 1
    ) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes!r}")
        self._now = float(initial_time)
        self._lanes: List[Lane] = [Lane(i, self._now) for i in range(lanes)]
        self._nlanes = lanes
        #: The ambient lane: events scheduled right now land in its heap.
        #: The run loop points it at the lane being dispatched; cross-lane
        #: producers (the network, process spawns) retarget it around their
        #: pushes via lane_scope()/lane_restore().
        self._lane: Lane = self._lanes[0]
        #: Hot alias of ``self._lane.heap`` — the inlined push sites in
        #: events.py write through this name.  Rebound only on lane switches,
        #: never replaced with a new list (compaction mutates in place).
        self._queue: List[Tuple[float, int, int, Event]] = self._lane.heap
        #: Triggered events to process *now*, ahead of the heaps: completions
        #: known to occur at the current instant skip the O(log n) heap
        #: round-trip.  Their callbacks still run from the top-level loop
        #: (never nested inside another event's callbacks).  Global FIFO
        #: across lanes — immediate ordering is part of the serial contract.
        self._immediate: Deque[Event] = deque()
        self._eid = 0
        self._active_process: Optional[Process] = None
        self.rng = SimRandom(seed)
        #: Cancelled events still occupying heap entries (lazy deletion),
        #: summed across lanes.
        self._dead = 0
        #: Live + dead entries across all lane heaps (the single-heap
        #: ``len(queue)`` of the classic kernel, kept as a counter so the
        #: inlined push sites stay O(1) regardless of lane count).
        self._pending = 0
        #: Set by any push that targets a lane other than the one being
        #: dispatched; tells the laned run loop its cached window bound may
        #: be stale.
        self._cross_push = False
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

    @property
    def lane_count(self) -> int:
        """Number of event lanes (1 = classic serial kernel)."""
        return self._nlanes

    # -- scheduling ------------------------------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Queue ``event`` for processing after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._eid += 1
        heapq.heappush(
            self._queue, (self._now + delay, priority, self._eid, event)
        )
        if event._cancelled:
            # Triggering an event cancelled while still pending: the fresh
            # heap entry is born dead.
            self._dead += 1
        pending = self._pending + 1
        self._pending = pending
        if pending > self._heap_high_water:
            self._heap_high_water = pending

    def schedule_into(
        self, lane_id: int, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Queue ``event`` in a specific lane's heap.

        The explicit cross-lane scheduling primitive: ordering is unaffected
        (the total order is lane-agnostic), but placement keeps per-lane
        stats honest and lets the laned run loop batch machine-local runs.
        """
        token = self.lane_scope(lane_id)
        self.schedule(event, delay, priority)
        self.lane_restore(token)

    def lane_scope(self, lane_id: int) -> Lane:
        """Retarget the ambient lane; returns a token for lane_restore().

        Used by the network and process layers to drop events into the lane
        that owns the destination machine.  Cheap enough for hot paths: two
        attribute writes when the lane actually changes, one compare when it
        does not.
        """
        lane = self._lanes[lane_id]
        prev = self._lane
        if lane is not prev:
            self._lane = lane
            self._queue = lane.heap
            self._cross_push = True
        return prev

    def lane_restore(self, token: Lane) -> None:
        """Undo a :meth:`lane_scope` (pass the token it returned)."""
        self._lane = token
        self._queue = token.heap

    def _note_cancelled(self) -> None:
        """A scheduled event was cancelled; compact when dead entries win."""
        self._dead += 1
        if self._dead * 2 > self._pending and self._pending >= self.COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from the lane heaps in one O(n) pass.

        Mutates each heap *in place*: the run loop holds local aliases to
        the lists across callback execution, and compaction can run from
        inside a callback.
        """
        pending = 0
        for lane in self._lanes:
            heap = lane.heap
            heap[:] = [e for e in heap if not e[3]._cancelled]
            heapq.heapify(heap)
            pending += len(heap)
        self._pending = pending
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

        Cancelled entries at the heads are purged on the way — ``run`` relies
        on peek to decide whether the next event lies past its horizon, so a
        dead head must never stand in for a live event beyond it.
        """
        if self._immediate:
            return self._now
        best = float("inf")
        for lane in self._lanes:
            heap = lane.heap
            while heap and heap[0][3]._cancelled:
                heappop(heap)
                self._dead -= 1
                self._skipped += 1
                self._pending -= 1
            if heap and heap[0][0] < best:
                best = heap[0][0]
        return best

    def _pop_next(self) -> Tuple[float, Lane, Event]:
        """Pop the globally minimal live entry across lanes (step() helper)."""
        best: Optional[Lane] = None
        best_key: Optional[Tuple[float, int, int, Event]] = None
        for lane in self._lanes:
            heap = lane.heap
            while heap and heap[0][3]._cancelled:
                heappop(heap)
                self._dead -= 1
                self._skipped += 1
                self._pending -= 1
            if heap and (best_key is None or heap[0] < best_key):
                best_key = heap[0]
                best = lane
        if best is None:
            raise EmptySchedule()
        heappop(best.heap)
        self._pending -= 1
        assert best_key is not None
        return best_key[0], best, best_key[3]

    def step(self) -> None:
        """Process exactly one event, advancing the clock to its time.

        Cancelled entries encountered on the way are discarded without
        running callbacks (and without consuming the step).
        """
        imm = self._immediate
        while imm:
            event = imm.popleft()
            if event._cancelled:
                self._skipped += 1
                continue
            self._lane.processed += 1
            self._dispatch(event)
            return
        when, lane, event = self._pop_next()
        self._now = when
        lane.clock = when
        lane.processed += 1
        self._lane = lane
        self._queue = lane.heap
        self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        """Run one popped event's callbacks (shared by step and run)."""
        self._processed += 1
        waiter = event._waiter
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        if waiter is not None:
            event._waiter = None
            waiter._resume(event)
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An exception nobody consumed: abort the run loudly.
            exc = event._value
            raise exc

    def heap_stats(self) -> dict:
        """Kernel counters for benchmarks (see ``benchmarks/bench_scale``).

        The top-level numbers are environment-wide and *identical for any
        lane count* (the laned executor preserves the serial total order);
        the ``lanes`` list carries the per-partition detail — heap high-water
        per lane, each lane's clock (skew between them is the spread), and
        window-stall counts.  Callers folding heap stats into determinism
        documents should drop the ``lanes`` key, which legitimately varies
        with the lane configuration.
        """
        single = self._nlanes == 1
        lanes = []
        for lane in self._lanes:
            pending = len(lane.heap)
            if pending > lane.high_water:
                lane.high_water = pending
            lanes.append(
                {
                    "lane": lane.id,
                    "pending": pending,
                    "heap_high_water": (
                        self._heap_high_water if single else lane.high_water
                    ),
                    "clock": self._now if single else lane.clock,
                    "processed": self._processed if single else lane.processed,
                    "window_stalls": lane.window_stalls,
                }
            )
        return {
            "pushes": self._eid,
            "processed": self._processed,
            "skipped_cancelled": self._skipped,
            "compactions": self._compactions,
            "heap_high_water": self._heap_high_water,
            "pending": self._pending,
            "dead_pending": self._dead,
            "lanes": lanes,
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
        if self._nlanes == 1:
            return self._run_single(stop_at, stop_event)
        return self._run_laned(stop_at, stop_event)

    def _run_single(self, stop_at, stop_event) -> Any:
        # The loop below is step() with peek() fused in: one heap access and
        # no per-event function calls.  This is the single hottest loop in
        # the whole system — any semantic change here must be mirrored in
        # step()/peek() and in _run_laned(), which preserves the same total
        # order across N lanes.
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
                        self._pending -= 1
                    if not queue:
                        if stop_at is not None:
                            self._now = stop_at
                        return None
                    entry = queue[0]
                    if stop_at is not None and entry[0] > stop_at:
                        self._now = stop_at
                        return None
                    pop(queue)
                    self._pending -= 1
                    event = entry[3]
                    self._now = entry[0]
                self._processed += 1
                waiter = event._waiter
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                if waiter is not None:
                    event._waiter = None
                    waiter._resume(event)
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # An exception nobody consumed: abort the run loudly.
                    raise event._value
        except StopSimulation:
            assert stop_event is not None
            if stop_event.ok:
                return stop_event.value
            raise stop_event.value from None

    def _run_laned(self, stop_at, stop_event) -> Any:
        # Exact-merge executor over N lane heaps: pops the global minimum
        # ``(time, priority, seq)`` so the total order equals _run_single's
        # bit for bit.  The win is batching — once a lane holds the global
        # minimum it keeps dispatching (small-heap pops, no cross-lane scan)
        # until another lane's cached head key could undercut it, an
        # immediate lands, or a push targets another lane.  That bound is
        # the in-process analogue of a conservative lookahead window.
        lanes = self._lanes
        imm = self._immediate
        pop = heappop
        try:
            while True:
                if imm:
                    event = imm.popleft()
                    if event._cancelled:
                        self._skipped += 1
                        continue
                    # Immediates have no heap entry; attribute them to the
                    # ambient lane so per-lane counts sum to the global one.
                    self._lane.processed += 1
                    self._processed += 1
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
                    continue
                # Full scan: purge dead heads, find the live global minimum
                # and the runner-up bound for the batched run below.
                best: Optional[Lane] = None
                best_key = None
                other_key = None
                for lane in lanes:
                    heap = lane.heap
                    while heap and heap[0][3]._cancelled:
                        pop(heap)
                        self._dead -= 1
                        self._skipped += 1
                        self._pending -= 1
                    if not heap:
                        continue
                    key = heap[0]
                    if best_key is None or key < best_key:
                        other_key = best_key
                        best_key = key
                        best = lane
                    elif other_key is None or key < other_key:
                        other_key = key
                if best is None:
                    if stop_at is not None:
                        self._now = stop_at
                    return None
                # Batched same-lane run.  other_key is a conservative lower
                # bound on every other lane's next event: cancellations only
                # raise their true minimum, and any push that could lower it
                # sets _cross_push and breaks the batch.
                heap = best.heap
                self._lane = best
                self._queue = heap
                self._cross_push = False
                while True:
                    entry = heap[0]
                    when = entry[0]
                    if stop_at is not None and when > stop_at:
                        self._now = stop_at
                        return None
                    depth = len(heap)
                    if depth > best.high_water:
                        best.high_water = depth
                    pop(heap)
                    self._pending -= 1
                    self._now = when
                    best.clock = when
                    best.processed += 1
                    event = entry[3]
                    self._processed += 1
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
                    if imm:
                        break  # immediates outrank every heap
                    if self._cross_push:
                        best.window_stalls += 1
                        break
                    while heap and heap[0][3]._cancelled:
                        pop(heap)
                        self._dead -= 1
                        self._skipped += 1
                        self._pending -= 1
                    if not heap:
                        break
                    if other_key is not None and not (heap[0] < other_key):
                        best.window_stalls += 1
                        break
        except StopSimulation:
            assert stop_event is not None
            if stop_event.ok:
                return stop_event.value
            raise stop_event.value from None

    def run_window(self, until: float) -> None:
        """Run every event *strictly before* ``until``, then advance to it.

        The half-open window primitive of the parallel lane executor
        (:mod:`repro.sim.lanes`): a partition may safely execute ``[now,
        until)`` when ``until <= min(neighbor clocks) + lookahead``, because
        no neighbor can still produce an envelope arriving inside the
        window.  Unlike :meth:`run`, an event scheduled exactly at ``until``
        is left for the next window.  Single-lane environments only.
        """
        assert self._nlanes == 1, "run_window drives one partition's lane"
        if until < self._now:
            raise ValueError(f"until={until!r} is in the past (now={self._now!r})")
        queue = self._queue
        imm = self._immediate
        pop = heappop
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
                    self._pending -= 1
                if not queue or queue[0][0] >= until:
                    self._now = until
                    return
                entry = queue[0]
                pop(queue)
                self._pending -= 1
                event = entry[3]
                self._now = entry[0]
            self._processed += 1
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
        return (
            f"<Environment now={self._now:.6f} pending={self._pending} "
            f"lanes={self._nlanes}>"
        )
