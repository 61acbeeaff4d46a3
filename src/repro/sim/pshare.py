"""Processor-sharing CPU model.

A machine's CPUs are modelled as an egalitarian processor-sharing (PS) server:
``n`` runnable tasks on ``c`` CPUs each progress at rate ``speed * min(1, c/n)``
CPU-seconds per second.  This captures the two effects the paper's evaluation
depends on:

* a compute-bound job (``loop``) finishes in its nominal time on an idle
  machine, and
* co-located jobs slow each other down, which is why clearing a machine of
  external processes before running a job gives "faster turnaround"
  (paper §6.1, Table 2 discussion).

The model is event-driven: task membership changes trigger a re-computation of
each task's completion horizon, so the cost is O(tasks) per change rather than
per tick.

Work may be ``math.inf``: an **open-ended task** holds its share until it is
cancelled and never completes — a job that computes until it is told to stop.
It slows its neighbours and counts as busy CPU like any other task, and it
costs no kernel event while it runs: a wake-up is armed only for a completion
that can happen, so a queue whose shortest task is open-ended has no timer
(one armed for a task that has since left is cancelled, never left in the
heap), and utilization is integrated whenever somebody asks.

A burst costs **one** kernel event: the queue's wake-up timer.  The task that
finishes at a wake-up has its completion event dispatched *inside* the
timer's own dispatch (:meth:`~repro.sim.events.Event.dispatch_now`) instead
of riding the immediate queue as a second event, and the timer object itself
is recycled from one wake-up to the next — the queue is its only holder — so
a burst on an otherwise idle CPU (all but a handful, in the scale workloads)
allocates nothing but its completion event and one heap entry.  Arming,
keeping, cancelling and firing happen at exactly the instants and in exactly
the heap order they always did, shared CPU or not.
"""

from __future__ import annotations

import itertools
from math import inf
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.sim.events import NO_CALLBACKS, PENDING, Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment


class PSTask(Event):
    """One unit of CPU-bound work on a :class:`ProcessorSharingQueue`.

    The task *is* its completion event: ``execute`` returns it, waiters
    yield it, and ``cancel`` takes it back.
    """

    __slots__ = ("tid", "work", "remaining", "tag")

    def __init__(self, env: "Environment", tid: int, work: float, tag: Any) -> None:
        # Event.__init__ inlined: one task per CPU burst.
        self.env = env
        self.callbacks = NO_CALLBACKS
        self._waiter = None
        self._value = PENDING
        self._ok = None
        self._processed = False
        self._defused = False
        self._cancelled = False
        self.tid = tid
        self.work = work
        self.remaining = work
        self.tag = tag

    def __repr__(self) -> str:
        return (
            f"<PSTask #{self.tid} tag={self.tag!r} "
            f"remaining={self.remaining:.6f}/{self.work:.6f}>"
        )


class ProcessorSharingQueue:
    """Egalitarian processor sharing over ``cpus`` processors.

    Parameters
    ----------
    env:
        Owning environment.
    cpus:
        Number of processors.
    speed:
        Relative speed factor; ``work`` is expressed in CPU-seconds on a
        ``speed == 1.0`` machine.
    """

    __slots__ = (
        "env",
        "cpus",
        "speed",
        "_tasks",
        "_tids",
        "_last_update",
        "_timer",
        "_timer_deadline",
        "_spare_timer",
        "_timer_callbacks",
        "_drain_order",
        "_busy_integral",
        "_accounting_start",
    )

    def __init__(self, env: "Environment", cpus: int = 1, speed: float = 1.0) -> None:
        if cpus < 1:
            raise ValueError("cpus must be >= 1")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.env = env
        self.cpus = cpus
        self.speed = speed
        self._tasks: Dict[int, PSTask] = {}
        self._tids = itertools.count(1)
        self._last_update = env.now
        #: The armed wake-up timer and its absolute deadline, if any.  The
        #: timer is *cancelled* (not abandoned) when membership changes make
        #: it obsolete, so churn does not flood the event heap.
        self._timer: Optional[Timeout] = None
        self._timer_deadline = 0.0
        #: The wake-up that fired last, free to be armed again: the timer
        #: never leaves this queue, so once processed it can be rescheduled
        #: in place of a fresh allocation.  (A *cancelled* timer cannot — its
        #: dead heap entry may still be pending.)
        self._spare_timer: Optional[Timeout] = None
        #: Callback list shared by every arming of the timer (the dispatch
        #: loop reads it and never mutates it).
        self._timer_callbacks = [self._on_timer]
        #: Tasks ordered by remaining work; valid between membership changes
        #: (equal PS rates preserve the order as work drains uniformly).
        self._drain_order: Optional[List[PSTask]] = None
        # Utilization accounting: integral of (busy CPUs / total CPUs) dt.
        self._busy_integral = 0.0
        self._accounting_start = env.now

    # -- public API ---------------------------------------------------------

    @property
    def load(self) -> int:
        """Number of runnable tasks right now."""
        return len(self._tasks)

    def rate(self) -> float:
        """Current progress rate (CPU-seconds per second) of each task."""
        n = len(self._tasks)
        if n == 0:
            return 0.0
        return self.speed * min(1.0, self.cpus / n)

    def execute(self, work: float, tag: Any = None) -> PSTask:
        """Enqueue ``work`` CPU-seconds; the returned event fires when done.

        ``math.inf`` is an open-ended task: it never fires, and holds its
        share until :meth:`cancel` takes it off.
        """
        if not work >= 0:  # negative, or nan
            raise ValueError(f"negative work {work!r}")
        if work == 0:
            task = PSTask(self.env, 0, 0.0, tag)
            task.succeed()
            return task
        self._advance()
        task = PSTask(self.env, next(self._tids), float(work), tag)
        self._tasks[task.tid] = task
        self._drain_order = None
        self._reschedule()
        return task

    def cancel(self, task: Event) -> bool:
        """Abort ``task`` (what :meth:`execute` returned); False if it is
        not running here any more."""
        tid = getattr(task, "tid", None)
        if self._tasks.get(tid) is not task:
            return False
        self._advance()
        del self._tasks[tid]
        self._drain_order = None
        self._reschedule()
        return True

    def utilization(self) -> float:
        """Mean fraction of CPU capacity in use since accounting started."""
        self._advance()
        elapsed = self.env.now - self._accounting_start
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / elapsed

    def reset_accounting(self) -> None:
        """Restart the utilization integral at the current instant."""
        self._advance()
        self._busy_integral = 0.0
        self._accounting_start = self.env.now

    # -- engine -----------------------------------------------------------

    def _advance(self, hold_first: bool = False) -> Optional[Event]:
        """Progress all tasks from the last update instant to ``now``.

        Completions known to occur *now* skip the heap: they are queued on
        the environment's immediate queue, in remaining-work order.  With
        ``hold_first`` (the wake-up timer's own dispatch) the first of them
        is returned instead, for the caller to dispatch in place; only the
        rare simultaneous finishers behind it are queued.
        """
        now = self.env._now
        dt = now - self._last_update
        if dt <= 0:
            self._last_update = now
            return None
        first = None
        tasks = self._tasks
        n = len(tasks)
        if n:
            cpus = self.cpus
            per_task = self.speed * min(1.0, cpus / n) * dt
            finished = None
            for task in tasks.values():
                task.remaining -= per_task
                if task.remaining <= 1e-12:
                    if finished is None:
                        finished = [task]
                    else:
                        finished.append(task)
            if finished is not None:
                if len(finished) > 1:
                    # Tasks whose horizons collapse into one wake-up (within
                    # float dust of each other) still complete in remaining-
                    # work order — the PS invariant policies rely on.  Equal
                    # drain preserves the weak remaining order but rounding
                    # can collapse it into ties; original work breaks them.
                    finished.sort(key=lambda t: (t.remaining, t.work, t.tid))
                immediate = self.env._immediate
                for task in finished:
                    del tasks[task.tid]
                    task.remaining = 0.0
                    task._ok = True
                    task._value = None
                    if hold_first and first is None:
                        first = task
                    else:
                        immediate.append(task)
                self._drain_order = None
            self._busy_integral += dt if n >= cpus else dt * n / cpus
        self._last_update = now
        return first

    def _reschedule(self) -> None:
        """Arm a wake-up for the next task completion.

        An already-armed timer whose deadline is *no later* than the new
        completion horizon is kept: firing early is harmless (``_advance``
        completes nothing and we re-arm), and keeping it avoids a cancel +
        re-arm per task arrival — arrivals slow everyone down, so the common
        case pushes the horizon later.  A timer that would fire too *late*
        is cancelled and replaced, never abandoned; when nothing can complete
        (no tasks, or only open-ended ones) it is cancelled and not replaced.
        """
        tasks = self._tasks
        shortest = inf
        if tasks:
            n = len(tasks)
            if n == 1:
                shortest = next(iter(tasks.values())).remaining
            else:
                shortest = min(task.remaining for task in tasks.values())
        if shortest == inf:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            return
        rate = self.speed if n <= self.cpus else self.speed * self.cpus / n
        horizon = shortest / rate
        # Guard against float dust: at large clock values a sub-epsilon
        # horizon would schedule the wake-up at *exactly* the current time
        # (now + h == now), making _advance see dt == 0 and re-arm forever.
        now = self.env._now
        eps = max(1e-9, abs(now) * 1e-12)
        if horizon < eps:
            horizon = eps
        deadline = now + horizon
        if self._timer is not None:
            if self._timer_deadline <= deadline:
                return  # armed timer fires no later than needed: keep it
            self._timer.cancel()
        timer = self._spare_timer
        if timer is None:
            timer = Timeout(self.env, horizon)
        else:
            # Re-arm the spent timer in place of allocating a fresh one.
            self._spare_timer = None
            timer._processed = False
            timer.delay = horizon
            self.env.schedule(timer, horizon)
        timer.callbacks = self._timer_callbacks
        self._timer = timer
        self._timer_deadline = deadline

    def _on_timer(self, timer: Event) -> None:
        self._timer = None
        self._spare_timer = timer
        done = self._advance(hold_first=True)
        self._reschedule()
        if done is not None:
            # The burst's one kernel event is this wake-up: its waiter
            # resumes here, after the queue has re-armed for whoever is left.
            done.dispatch_now()

    def drain_estimate(self) -> float:
        """Simulated seconds until all current tasks finish (no arrivals).

        PS with equal rates completes tasks in remaining-work order; this is
        used by policies to predict machine availability (``math.inf`` while
        an open-ended task is running).  The remaining-work
        ordering is cached between membership changes (uniform drain keeps it
        sorted), so polling policies pay O(tasks), not O(tasks log tasks).
        """
        self._advance()
        order = self._drain_order
        if order is None:
            order = self._drain_order = sorted(
                self._tasks.values(), key=lambda task: task.remaining
            )
        if not order:
            return 0.0
        if order[-1].remaining == inf:
            return inf  # an open-ended task never drains
        t = 0.0
        prev = 0.0
        n = len(order)
        for idx, task in enumerate(order):
            active = n - idx
            rate = self.speed * min(1.0, self.cpus / active)
            t += (task.remaining - prev) / rate
            prev = task.remaining
        return t

    def __repr__(self) -> str:
        return (
            f"<ProcessorSharingQueue cpus={self.cpus} speed={self.speed} "
            f"load={len(self._tasks)}>"
        )
