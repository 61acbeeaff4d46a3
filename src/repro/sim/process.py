"""Generator-based simulated processes.

A :class:`Process` drives a Python generator: every value the generator yields
must be an :class:`~repro.sim.events.Event`; the process sleeps until the event
is processed and is then resumed with the event's value (or has the event's
exception thrown into it).  The process itself is an event that triggers when
the generator returns (value = ``StopIteration.value``) or raises.

Interrupts
----------
:meth:`Process.interrupt` asynchronously throws :class:`Interrupt` into the
generator at the current simulated instant.  This is the substrate for Unix
signals in :mod:`repro.os`: a simulated ``SIGTERM`` is an interrupt whose cause
carries the signal, and program bodies may catch it to clean up.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Optional

from repro.sim.events import NORMAL, PENDING, URGENT, Event, Timeout


def _detach_waiter(target: Event, process: "Process") -> None:
    """Detach ``process`` from ``target``; cancel a timer left orphaned.

    When a process is interrupted or aborted mid-sleep, the timeout it was
    waiting on stays scheduled with nobody listening.  Churning processes
    (retry backoffs, heartbeat loops) would flood the heap with such dead
    timers; cancelling them lets the kernel's lazy deletion reclaim the
    entries.  Only plain timeouts are cancelled — any other event may have
    meaning to other waiters.
    """
    if target._waiter is process:
        target._waiter = None
    else:
        target.remove_callback(process._resume)
    if (
        target._waiter is None
        and not target.callbacks
        and isinstance(target, Timeout)
    ):
        target.cancel()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Attributes
    ----------
    cause:
        Arbitrary payload supplied by the interrupter (e.g. a simulated
        signal object).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class ProcessDied(Exception):
    """Raised by waiters when a process fails with an unhandled exception."""


class _Initialize(Event):
    """Kernel event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self._waiter = process
        env.schedule(self, delay=0.0, priority=URGENT)


class _Interruption(Event):
    """Kernel event that delivers an :class:`Interrupt` to a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks = [self._deliver]
        self.env.schedule(self, delay=0.0, priority=URGENT)

    def _deliver(self, event: Event) -> None:
        process = self.process
        if process.triggered:
            return  # the target already finished; interrupt is a no-op
        # Detach the process from whatever it was waiting on so the original
        # event no longer resumes it, then resume with the Interrupt.
        target = process._target
        if target is not None:
            _detach_waiter(target, process)
        process._resume(self)


class Process(Event):
    """A running simulated activity wrapping a generator.

    The process is itself an event: yield it (or add callbacks) to wait for
    completion.  ``process.value`` is the generator's return value.
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: GeneratorType,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if running
        #: right now or finished).
        self._target: Optional[Event] = None
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not yet finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on, if any."""
        return self._target

    def abort(self, value: Any = None) -> None:
        """Forcefully terminate the process at the current instant.

        Unlike :meth:`interrupt`, the generator gets no chance to handle
        anything except ``finally`` blocks (``GeneratorExit`` is raised at its
        current yield point, mirroring how a SIGKILLed Unix process never runs
        signal handlers).  Waiters see the process succeed with ``value``.
        """
        if not self.is_alive:
            return
        if self.env._active_process is self:
            raise RuntimeError("a process cannot abort itself")
        target = self._target
        if target is not None:
            _detach_waiter(target, self)
        self._target = None
        self.generator.close()
        self._ok = True
        self._value = value
        self.env.schedule(self, delay=0.0, priority=NORMAL)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process raises ``RuntimeError`` — callers that
        race with completion should check :attr:`is_alive` first.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has already terminated")
        _Interruption(self, cause)

    # -- engine ------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``.

        Called by whatever dispatches the event this process is parked on
        (as the event's ``_waiter``, or as a callback when it was not the
        first subscriber), and by the kernel events that start and
        interrupt it.
        """
        self._target = None
        if self._value is not PENDING:
            # Aborted (e.g. SIGKILL from a machine crash) after this wakeup
            # was scheduled but before it was delivered — the initialize
            # event of a process killed at birth takes exactly this path.
            # The generator is closed and the completion event is already
            # scheduled; advancing would double-schedule it.
            return
        env = self.env
        env._active_process = self
        generator = self.generator
        while True:
            try:
                # Direct slot access (not the ok/value properties): this loop
                # runs once per event in the simulation.
                if event is None:
                    next_event = generator.send(None)
                elif event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The event failed: propagate into the generator.  Mark
                    # the exception as consumed so the kernel does not also
                    # treat it as unhandled.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env.schedule(self, delay=0.0, priority=NORMAL)
                break
            except BaseException as exc:  # noqa: BLE001 - process crash path
                self._ok = False
                self._value = exc
                env.schedule(self, delay=0.0, priority=NORMAL)
                break

            if not isinstance(next_event, Event):
                # Restart the generator with an error to surface the misuse
                # at the offending yield statement.
                event = Event(env)
                event._ok = False
                event._value = TypeError(
                    f"process {self.name!r} yielded {next_event!r}, "
                    "which is not an Event"
                )
                event._defused = True
                continue
            if next_event.env is not env:
                event = Event(env)
                event._ok = False
                event._value = ValueError(
                    f"process {self.name!r} yielded an event from a "
                    "different environment"
                )
                event._defused = True
                continue

            if next_event._processed:
                # Already done: loop immediately with its outcome.
                event = next_event
                continue

            self._target = next_event
            if next_event._waiter is None and not next_event.callbacks:
                # First subscriber: park in the waiter slot (no list, no
                # bound method).  Unprocessed => callbacks is not None.
                next_event._waiter = self
            else:
                next_event.add_callback(self._resume)
            break
        env._active_process = None

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state} at {id(self):#x}>"
