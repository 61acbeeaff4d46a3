"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot future: it starts *pending*, is *triggered*
exactly once with either a value (:meth:`Event.succeed`) or an exception
(:meth:`Event.fail`), and is then *processed* by the environment, which runs
its callbacks at a well-defined point in simulated time.

Priorities
----------
Events triggered for the same simulated time are processed in
``(priority, sequence)`` order.  ``URGENT`` is reserved for kernel-internal
bookkeeping (process interrupts, store handoffs) so that user-visible ordering
stays intuitive; ``NORMAL`` is the default.

Cancellation
------------
:meth:`Event.cancel` marks a scheduled event dead *in place*: the heap entry
stays where it is, and :meth:`Environment.step` discards it without running
callbacks (lazy deletion — removing an arbitrary heap entry eagerly would be
O(n)).  This is the mechanism behind every re-armed timer in the system: the
processor-sharing wake-up, retry backoffs, the broker's liveness sweep.  A
cancelled event never delivers a value, so only cancel events nobody is (or
will be) waiting on.

Subscribers: the waiter slot
----------------------------
An event has two places for subscribers.  ``_waiter`` holds the one
:class:`~repro.sim.process.Process` parked on it, when that process was the
event's *first* subscriber — the overwhelmingly common ``yield event`` — and
``callbacks`` holds everything else.  ``callbacks`` starts as the shared
empty tuple :data:`NO_CALLBACKS` and becomes a list only when
:meth:`Event.add_callback` first needs one, so a parked process costs the
event it waits on and nothing more: no list, no bound method.  Dispatch
resumes the waiter first and then walks the list
(:func:`resume_subscribers`).  That *is* registration order: the slot is
taken only while both are empty, and a process arriving later falls back to
the list.  Code outside the kernel subscribes with ``add_callback`` and
never touches either directly.

Re-arming
---------
A processed event can be scheduled again in place of allocating a fresh one
(``_processed = False``, ``callbacks = NO_CALLBACKS``, ``env.schedule``) —
but only a born-triggered :class:`Timeout` whose sole holder is the code
re-arming it: the processor-sharing wake-up, the silence deadline of
``Connection.recv_or_deadline``.  The rules, each learnt the hard way:

* Never re-arm a *cancelled* timer: its dead heap entry may still be
  pending, and reviving the object would revive that entry with it.
* Never recycle a pending-type event (``PSTask``, ``StoreGet``, a bare
  ``Event``).  Resetting one to pending inside its own dispatch trips the
  run loop's post-callback ``_ok``/``_defused`` check (``_ok`` is ``None``
  again, so the loop raises the value: ``TypeError: exceptions must derive
  from BaseException``), and a burst's completion event may still be a key
  in some ``AnyOf`` result.
* Do not cache a process's bound resume method on the process to save the
  allocation: process → method → process is a reference cycle, every dead
  process then waits for the cyclic collector, and the short-lived
  processes of the soak workload paid 2.5 % for it.  The waiter slot stores
  the process itself and needs no method at all.
"""

from __future__ import annotations

from heapq import heappush
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.environment import Environment
    from repro.sim.process import Process

#: Sentinel for "this event has not been triggered yet".
PENDING = object()

#: Kernel-internal priority; processed before anything else at the same time.
URGENT = 0
#: Default priority for user events.
NORMAL = 1
#: Processed after everything else at the same time (used for monitors).
LOW = 2

#: What ``Event.callbacks`` is until somebody adds one (shared, immutable).
NO_CALLBACKS: Tuple[()] = ()


class EventAborted(Exception):
    """Raised into waiters when an event is cancelled before triggering."""


def resume_subscribers(
    waiter: Optional["Process"],
    callbacks: Iterable[Callable[["Event"], None]],
    outcome: "Event",
) -> None:
    """Hand ``outcome`` to an event's subscribers in registration order.

    The parked waiter first, then the callback list (module docstring).
    Shared by ``Environment._dispatch`` and by ``Connection._recv_won``,
    which resumes a deadline's subscribers with the receive that beat it.
    """
    if waiter is not None:
        waiter._resume(outcome)
    for callback in callbacks:
        callback(outcome)


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    env:
        The owning environment.

    Notes
    -----
    The life cycle is ``pending -> triggered -> processed``.  Callbacks are
    plain callables invoked with the event as their only argument; once the
    event has been processed, adding a callback raises ``RuntimeError``
    (late registration is almost always a bug in simulation code).  A
    processed event is finished for good, with two exceptions — timers that
    their only holder schedules again; the module docstring (*Re-arming*)
    says which, and why nothing else may be: no pending-type event is ever
    recycled, and no process caches its resume method.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_waiter",
        "_value",
        "_ok",
        "_processed",
        "_defused",
        "_cancelled",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: NO_CALLBACKS, then a list once add_callback needs one, then None
        #: once processed.
        self.callbacks: Optional[Sequence[Callable[["Event"], None]]] = (
            NO_CALLBACKS
        )
        #: The process parked here as first subscriber (module docstring).
        self._waiter: Optional["Process"] = None
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        self._defused = False
        self._cancelled = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has marked this event dead."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Environment.schedule inlined (hot path: every store handoff and
        # task completion lands here).  Mirror changes there.
        env = self.env
        env._eid += 1
        queue = env._queue
        heappush(queue, (env._now, priority, env._eid, self))
        if self._cancelled:
            env._dead += 1
        if len(queue) > env._heap_high_water:
            env._heap_high_water = len(queue)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception delivered to all waiters."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay=0.0, priority=priority)
        return self

    def cancel(self) -> bool:
        """Mark the event dead so it is discarded instead of processed.

        Returns False (a no-op) once the event has already been processed.
        The scheduled heap entry is *not* removed — the environment skips it
        lazily when popped and compacts the heap when dead entries pile up —
        so cancelling is O(1).  Callbacks of a cancelled event never run;
        cancel only timers nobody waits on (the kernel does this itself for
        timers orphaned by process death).
        """
        if self._processed:
            return False
        if not self._cancelled:
            self._cancelled = True
            if self._value is not PENDING:
                # Already triggered => a heap entry exists for it.
                self.env._note_cancelled()
        return True

    def dispatch_now(self) -> None:
        """Process this triggered event *now*, inside the current dispatch.

        Event fusion: a kernel callback that knows an event occurs at this
        very instant — the processor-sharing wake-up completing a CPU burst
        — runs the event's callbacks in place instead of queueing a second
        kernel event for them.  The caller
        must have set ``_ok``/``_value``.  Only legal from an event's own
        dispatch, never from inside a running process: a waiter resumed
        here would clobber the environment's active process.  The event is
        not counted in ``heap_stats()["processed"]`` — it never was a
        kernel event of its own.

        The fused event runs *ahead of* everything else due this instant,
        where queued it would run behind.  A burst's completion is fine
        with that; a message receiver is not, which is why
        :class:`~repro.cluster.network.Connection` triggers its reader
        with ``succeed`` and pays a third kernel event per heartbeat.
        """
        env = self.env
        assert env._active_process is None, "dispatch_now inside a process"
        if self._cancelled:
            env._skipped += 1
            return
        env._dispatch(self)

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run.

        A failed event whose exception reaches the environment's step loop
        without any process consuming it stops the simulation (mirroring
        SimPy's behaviour); defusing suppresses that.
        """
        self._defused = True

    # -- waiting -----------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        callbacks = self.callbacks
        if callbacks:
            callbacks.append(callback)
        elif callbacks is None:
            raise RuntimeError(f"{self!r} has already been processed")
        else:
            self.callbacks = [callback]

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Remove a previously-added callback (no-op if absent/processed)."""
        if self.callbacks:
            try:
                self.callbacks.remove(callback)
            except ValueError:
                pass

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._value is PENDING
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(
        self, env: "Environment", delay: float, value: Any = None
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Event.__init__ is inlined here: timeouts are the kernel's hottest
        # allocation (every sleep, message latency and PS wake-up is one),
        # and they are born triggered, so the generic pending setup would be
        # overwritten immediately anyway.
        self.env = env
        self.callbacks = NO_CALLBACKS
        self._waiter = None
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self.delay = delay
        # Environment.schedule inlined (a fresh timeout is never born dead).
        env._eid += 1
        queue = env._queue
        heappush(queue, (env._now + delay, NORMAL, env._eid, self))
        if len(queue) > env._heap_high_water:
            env._heap_high_water = len(queue)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r} at {id(self):#x}>"


class _Condition(Event):
    """Base for composite events over a fixed set of sub-events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        # A condition failing with nobody waiting is always benign: it means
        # the waiter died (was killed) or stopped caring.  Live waiters still
        # receive the failure as an exception.
        self._defused = True
        self.events: List[Event] = list(events)
        self._count = 0
        if not self.events:
            self.succeed(self._collect())
            return
        # One pass, slot access (conditions guard every racing wait in the
        # system).  Subscribing as it validates means a foreign sub-event
        # found late must undo what the pass already did.
        check = self._check
        for event in self.events:
            if event.env is not env:
                for sub in self.events:
                    sub.remove_callback(check)
                self.cancel()
                raise ValueError("cannot mix events from different environments")
            if self._value is not PENDING:
                continue  # satisfied by an earlier sub-event; don't subscribe
            if event._processed:
                check(event)
            else:
                event.add_callback(check)

    def _collect(self) -> dict:
        # Only events that have actually been *processed* count as having
        # occurred: a Timeout carries its value from construction, so testing
        # ``triggered`` alone would report future timeouts as complete.
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event.ok:
            event.defuse()
            self.fail(event.value)
        elif self._satisfied():
            self.succeed(self._collect())
        if self.triggered:
            self._detach_pending(event)

    def _detach_pending(self, cause: Event) -> None:
        """Unsubscribe from sub-events that can no longer matter.

        Once the condition has triggered, the still-unprocessed sub-events
        would only invoke a dead ``_check``; detach from them, and cancel
        timeout guards nobody else waits on — the ``any_of([op, timeout])``
        race pattern otherwise leaks one dead timer per race into the heap.
        """
        for ev in self.events:
            if ev is cause or ev.processed:
                continue
            ev.remove_callback(self._check)
            if (
                ev._waiter is None
                and not ev.callbacks
                and isinstance(ev, Timeout)
            ):
                ev.cancel()

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers once *all* sub-events have succeeded (fails fast on error)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self.events)


class AnyOf(_Condition):
    """Triggers as soon as *any* sub-event succeeds (fails fast on error)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1
