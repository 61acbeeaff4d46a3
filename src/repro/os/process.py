"""Simulated OS processes.

An :class:`OSProcess` runs a program body (a generator function) on a machine
and exposes the POSIX-ish surface program bodies use: argv, inherited
environment variables, spawn, CPU bursts, sleeping, sockets, files and
signals.

Unix details that matter to the paper and are modelled faithfully:

* children inherit a *copy* of the parent's environment — this is how every
  descendant of an ``app`` process knows where its app lives
  (``RB_APP_HOST`` / ``RB_APP_PORT``);
* a process may only signal processes of the same uid — this is why the
  user-level broker needs the app layer at all: the broker's own daemons run
  as the broker user and *cannot* touch the job, while the app/subapp
  processes run as the job's user and can;
* SIGKILL is uncatchable; other signals run handlers (``except Interrupt``);
* process death releases its CPU bursts and closes its sockets; children are
  orphaned, not killed.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.os.errors import SimOSError
from repro.os.signals import SIGKILL, Signal, SignalDelivery
from repro.sim.events import Event
from repro.sim.process import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.network import Connection, Listener
    from repro.os.machine import Machine

#: What a process's container slots (``children``, bursts, listeners,
#: connections, threads) hold until the first one is needed and again once
#: the process has let go of them: shared and immutable, yet iterable, sized
#: and false like an empty list.
EMPTY: Tuple[()] = ()

#: A connection or thread list is first pruned of finished entries when it
#: reaches this length, and after each prune when it reaches twice what the
#: prune kept: amortised O(1) per entry, and never more than twice what was
#: live at the last prune.  Two: a finished entry leaves as soon as a second
#: one joins it.
PRUNE_AT = 2


def _track(entries, entry, prune_at, live):
    """``entries`` with ``entry`` appended, and the length of the next
    prune: at ``prune_at`` entries the list becomes ``live(entries)``, its
    unfinished entries (see :data:`PRUNE_AT`)."""
    if not entries:
        return [entry], prune_at
    entries.append(entry)
    if len(entries) >= prune_at:
        entries = live(entries)
        prune_at = max(PRUNE_AT, 2 * len(entries))
    return entries, prune_at


def _running(threads):
    return [thread for thread in threads if thread.is_alive]


def _open(connections):
    return [conn for conn in connections if not conn.closed_local]


class ProcessStatus(enum.Enum):
    """Lifecycle state of a simulated process."""

    RUNNING = "running"
    EXITED = "exited"
    KILLED = "killed"
    CRASHED = "crashed"


class PermissionError_(SimOSError):
    """Signal permission denied (different uid)."""


class OSProcess:
    """One simulated Unix process.

    Parameters
    ----------
    machine:
        Host to run on.
    argv:
        ``argv[0]`` is the program name resolved through the machine's PATH
        (or a qualified ``dir:name``); the rest are arguments.
    uid:
        Owning user.
    environ:
        Environment variables; children built via :meth:`spawn` inherit a
        copy automatically.
    parent:
        Creating process, if any.
    startup_delay:
        Exec overhead before the body starts running (defaults to the
        network's calibration ``proc_startup``).

    A process owns only what it uses.  Most of a cluster's processes never
    spawn, listen, compute or run a thread, so ``children`` and the CPU
    burst, listener, connection and thread containers are the shared
    :data:`EMPTY` until first needed, and :attr:`terminated` and
    :attr:`daemonized` are made on first access; at exit the process drops
    everything but ``children``, which ``kill_tree`` still walks.
    """

    __slots__ = (
        "machine",
        "env",
        "argv",
        "uid",
        "environ",
        "parent",
        "pid",
        "children",
        "status",
        "exit_code",
        "exception",
        "_terminated",
        "_daemonized",
        "_computes",
        "_listeners",
        "_connections",
        "_prune_connections_at",
        "_threads",
        "_prune_threads_at",
        "_startup_delay",
        "_sim_process",
    )

    def __init__(
        self,
        machine: "Machine",
        argv: Sequence[str],
        uid: str,
        environ: Optional[Dict[str, str]] = None,
        parent: Optional["OSProcess"] = None,
        startup_delay: Optional[float] = None,
    ) -> None:
        if not argv:
            raise ValueError("argv must not be empty")
        self.machine = machine
        self.env = machine.env
        self.argv = list(argv)
        self.uid = uid
        self.environ: Dict[str, str] = dict(environ or {})
        self.parent = parent
        self.pid = machine.next_pid()
        self.children = EMPTY
        self.status = ProcessStatus.RUNNING
        self.exit_code: Optional[int] = None
        self.exception: Optional[BaseException] = None
        self._terminated: Optional[Event] = None
        self._daemonized: Optional[Event] = None
        self._computes = EMPTY
        self._listeners = EMPTY
        self._connections = EMPTY
        self._prune_connections_at = PRUNE_AT
        self._threads = EMPTY
        self._prune_threads_at = PRUNE_AT

        body = machine.resolve_program(self.argv[0])
        if startup_delay is None:
            startup_delay = self._calibration().proc_startup
        self._startup_delay = startup_delay
        machine.register_process(self)
        if parent is not None:
            if parent.children:
                parent.children.append(self)
            else:
                parent.children = [self]
        # Not env.process(): when the run is closed the process table finds
        # this and the threads (sim_processes), so they need no registry.
        self._sim_process = Process(
            self.env,
            self._run(body),
            name=f"{machine.name}:{self.argv[0]}#{self.pid}",
        )
        self._sim_process.add_callback(self._on_sim_exit)

    def _calibration(self):
        network = self.machine.network
        if network is not None:
            return network.calibration
        from repro.calibration import DEFAULT

        return DEFAULT

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def host(self) -> str:
        return self.machine.name

    @property
    def home(self) -> str:
        """The user's home directory path on this machine."""
        return self.environ.get("HOME", f"/home/{self.uid}")

    @property
    def is_alive(self) -> bool:
        return self.status is ProcessStatus.RUNNING

    # -- body runner ----------------------------------------------------------

    def _run(self, body):
        try:
            # The startup delay is inside the try: a signal arriving while
            # the process is still "exec-ing" (no handler installed yet)
            # terminates it with the conventional code, as on real Unix.
            if self._startup_delay > 0:
                yield self.env.timeout(self._startup_delay)
            result = yield from body(self)
        except Interrupt as intr:
            # An uncaught signal: die with the conventional exit code.
            cause = intr.cause
            signum = (
                int(cause.signal)
                if isinstance(cause, SignalDelivery)
                else int(Signal.SIGTERM)
            )
            return -signum
        if result is None:
            return 0
        return int(result)

    def _on_sim_exit(self, event: Event) -> None:
        if self.exit_code is not None:
            # Already finalized (SIGKILL or a crashed thread aborted us);
            # the main generator completing afterwards is expected.
            return
        if event.ok:
            code = event.value
            code = 0 if code is None else int(code)
            self.status = (
                ProcessStatus.EXITED if code >= 0 else ProcessStatus.KILLED
            )
            self._finalize(code)
        else:
            event.defuse()
            self.exception = event.value
            self.status = ProcessStatus.CRASHED
            network = self.machine.network
            if network is not None:
                network.record_crash(self)
            self._finalize(1)

    def _finalize(self, code: int) -> None:
        self.exit_code = code
        self.machine.unregister_process(self)
        # A crashing thread finalizes the process from inside its own
        # generator: it cannot be aborted and ends by itself right after.
        running = self.env.active_process
        threads, self._threads = self._threads, EMPTY
        for thread in threads:
            if thread.is_alive and thread is not running:
                thread.abort()
        computes, self._computes = self._computes, EMPTY
        for compute in computes:
            self.machine.cpu.cancel(compute)
        listeners, self._listeners = self._listeners, EMPTY
        for listener in listeners:
            listener.close()
        connections, self._connections = self._connections, EMPTY
        for conn in connections:
            conn.close()
        self.terminated.succeed(code)
        self._reap()

    def _reap(self) -> None:
        """Unlink this dead process from the process tree.

        A child stays in ``parent.children`` while it has children of its
        own (``kill_tree`` must still reach live descendants through a dead
        intermediate), and is dropped once its own subtree is gone —
        recursively unpinning dead ancestors.  Without reaping, long-lived
        parents (rshd, the daemons) accumulate every process they ever
        spawned and a service-mode run's memory grows with its history."""
        node = self
        while (
            node.parent is not None
            and not node.is_alive
            and not node.children
        ):
            parent = node.parent
            siblings = parent.children
            if node in siblings:
                siblings.remove(node)
                if not siblings:
                    parent.children = EMPTY
            node.parent = None
            node = parent

    def sim_processes(self) -> Tuple[Process, ...]:
        """The simulated processes running this process: its body and its
        threads (finished ones too, until a prune drops them)."""
        return (self._sim_process, *self._threads)

    def close(self) -> None:
        """Drop everything live with the finished run (``Cluster.close``):
        threads, bursts, sockets and the process-tree links.  Unlike
        :meth:`_finalize` nothing is closed or signalled — the simulation is
        over — and what the process was (argv, status, exit code) stays
        readable."""
        self._threads = self._computes = EMPTY
        self._listeners = self._connections = EMPTY
        self.children = EMPTY
        self.parent = None

    # -- syscalls for program bodies ---------------------------------------

    def sleep(self, seconds: float) -> Event:
        """Event firing after ``seconds`` of simulated time."""
        return self.env.timeout(seconds)

    def compute(self, cpu_seconds: float, tag: Any = None) -> Event:
        """Event firing when ``cpu_seconds`` of CPU work completes.

        The burst contends with every other runnable task on this machine
        (processor sharing) and is cancelled automatically if the process
        dies first.  ``cpu_seconds`` may be ``math.inf``: an open-ended
        burst that holds its CPU share, never fires and costs no kernel
        event — a job that computes until a signal stops it.

        An :class:`~repro.sim.process.Interrupt` takes the waiter off the
        event, not the burst off the CPU: it runs on until it completes or
        the process dies.  A program that *ignores* a signal therefore
        re-yields the same event; calling ``compute`` again would run a
        second burst beside the first::

            burst = proc.compute(math.inf)
            while True:
                try:
                    yield burst
                except Interrupt:
                    pass  # signal swallowed, still one task on the CPU
        """
        done = self.machine.cpu.execute(cpu_seconds, tag=tag or self.name)
        computes = self._computes
        if computes:
            # Pruning at the next burst instead of a discard callback per
            # burst: cancelling an already-finished compute at death is a
            # no-op, so a finished entry only costs memory until this
            # process computes again.  In place, so the set itself stays
            # in the collector's old generation.
            computes.difference_update(
                [ev for ev in computes if ev._processed]
            )
            computes.add(done)
        else:
            self._computes = {done}
        return done

    def spawn(
        self,
        argv: Sequence[str],
        environ: Optional[Dict[str, str]] = None,
        uid: Optional[str] = None,
        startup_delay: Optional[float] = None,
        inherit_env: bool = True,
    ) -> "OSProcess":
        """fork+exec a child on this machine.

        The child inherits a copy of this process's environment (unless
        ``inherit_env`` is False — rshd starts remote commands with a fresh
        login environment) merged with ``environ`` overrides.
        """
        child_env = dict(self.environ) if inherit_env else {}
        if environ:
            child_env.update(environ)
        return OSProcess(
            self.machine,
            argv,
            uid=uid or self.uid,
            environ=child_env,
            parent=self,
            startup_delay=startup_delay,
        )

    def wait(self, child: "OSProcess") -> Event:
        """Event that fires with ``child``'s exit code (waitpid)."""
        return child.terminated

    @property
    def terminated(self) -> Event:
        """Event that fires with the exit code when the process terminates.
        Made on first access: most processes are never waited on, and
        :meth:`_finalize` makes it then if nobody asked."""
        event = self._terminated
        if event is None:
            event = self._terminated = Event(self.env)
        return event

    @property
    def daemonized(self) -> Event:
        """Event that fires if the process detaches into the background
        (``pvmd``-style daemonization); an rshd waiting on the remote
        command returns control to the rsh client when this fires.  Made
        on first access: only rsh-started commands are ever waited on."""
        event = self._daemonized
        if event is None:
            event = self._daemonized = Event(self.env)
        return event

    def daemonize(self) -> None:
        """Detach into the background (see :attr:`daemonized`)."""
        event = self.daemonized
        if not event.triggered:
            event.succeed()

    def thread(self, generator, name: Optional[str] = None) -> Process:
        """Run ``generator`` concurrently *inside* this process.

        Threads share the process's sockets and die with it (they are
        aborted when the process terminates).  Used by servers that juggle
        several connections — rshd sessions, the app's per-client handlers.
        An unhandled exception in a thread crashes the whole process, like a
        real thread taking down its process.
        """
        label = f"{self.machine.name}:{self.argv[0]}#{self.pid}/{name or 'thread'}"
        thread = Process(self.env, self._thread_body(generator), name=label)
        # Finished threads leave at the next prune instead of through a
        # callback each: aborting a finished thread at death is a no-op.
        self._threads, self._prune_threads_at = _track(
            self._threads, thread, self._prune_threads_at, _running
        )
        return thread

    def _thread_body(self, generator):
        try:
            result = yield from generator
        except GeneratorExit:  # being aborted alongside the process
            raise
        except Interrupt:
            result = None  # process-level signal tore the thread down
        except BaseException as exc:  # noqa: BLE001 - crash the process
            if self.is_alive:
                self.exception = exc
                self.status = ProcessStatus.CRASHED
                network = self.machine.network
                if network is not None:
                    network.record_crash(self)
                self._sim_process.abort(1)
                self._finalize(1)
            return None
        threads = self._threads
        if len(threads) == 1 and threads[0] is self.env.active_process:
            # The only thread is done: a server of one session at a time
            # (rshd) keeps no finished one until the next session joins.
            self._threads = EMPTY
        return result

    # -- signals ---------------------------------------------------------------

    def signal(
        self, sig: Signal, sender: Optional["OSProcess"] = None
    ) -> bool:
        """Deliver ``sig`` to this process.

        Returns False (and delivers nothing) if the process is already dead
        — or as good as: its body has returned and only the exit event is
        still to be dispatched at this instant.
        Raises :class:`PermissionError_` if ``sender`` belongs to a different
        uid — the Unix rule the paper's two-layer design exists to respect.
        """
        if sender is not None and sender.uid != self.uid:
            raise PermissionError_(
                f"{sender.uid!r} cannot signal {self.uid!r}'s pid {self.pid}"
            )
        if not self.is_alive or not self._sim_process.is_alive:
            return False
        delivery = SignalDelivery(sig, sender)
        if sig is SIGKILL:
            self.status = ProcessStatus.KILLED
            self._sim_process.abort(-int(SIGKILL))
            self._finalize(-int(SIGKILL))
            return True
        self._sim_process.interrupt(delivery)
        return True

    def kill_tree(self, sig: Signal, sender: Optional["OSProcess"] = None) -> int:
        """Signal this process and every live descendant; returns count."""
        count = 0
        for child in list(self.children):
            count += child.kill_tree(sig, sender=sender)
        if self.is_alive:
            self.signal(sig, sender=sender)
            count += 1
        return count

    # -- sockets (delegated to the network) ------------------------------------

    def _network(self):
        network = self.machine.network
        if network is None:
            raise SimOSError(f"machine {self.machine.name!r} is not networked")
        return network

    def listen(self, port: int) -> "Listener":
        """Open a listening socket on ``port`` of this machine."""
        listener = self._network().listen(self, port)
        if self._listeners:
            self._listeners.append(listener)
        else:
            self._listeners = [listener]
        return listener

    def connect(self, host: str, port: int) -> Event:
        """Event yielding a :class:`Connection` (or failing) after latency."""
        return self._network().connect(self, host, port)

    def adopt_connection(self, conn: "Connection") -> None:
        """Track a connection for closing when this process dies.

        Already-closed sockets are dropped amortizedly as new ones are
        adopted (:data:`PRUNE_AT`): a long-lived acceptor (rshd, the
        broker, the daemons) would otherwise pin every connection it ever
        served until death, growing a service-mode run's memory with its
        whole history."""
        self._connections, self._prune_connections_at = _track(
            self._connections, conn, self._prune_connections_at, _open
        )

    # -- files -------------------------------------------------------------

    def expand(self, path: str) -> str:
        """Expand ``~`` and ``$HOME`` to this process's home directory."""
        if path.startswith("~"):
            path = self.home + path[1:]
        return path.replace("$HOME", self.home)

    def read_file(self, path: str) -> str:
        """Read ``path`` (with home expansion) from this machine's fs."""
        return self.machine.fs.read(self.expand(path))

    def write_file(self, path: str, content: str) -> None:
        """Create/truncate ``path`` (with home expansion)."""
        self.machine.fs.write(self.expand(path), content)

    def append_file(self, path: str, content: str) -> None:
        """Append to ``path`` (with home expansion)."""
        self.machine.fs.append(self.expand(path), content)

    def unlink_file(self, path: str) -> None:
        """Delete ``path`` if present (rm -f semantics)."""
        self.machine.fs.unlink(self.expand(path))

    def file_exists(self, path: str) -> bool:
        """Whether ``path`` (with home expansion) exists."""
        return self.machine.fs.exists(self.expand(path))

    def __repr__(self) -> str:
        return (
            f"<OSProcess {self.machine.name}:{self.pid} {self.argv[0]!r} "
            f"uid={self.uid} {self.status.value}>"
        )
