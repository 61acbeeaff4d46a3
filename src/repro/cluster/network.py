"""The simulated LAN: name resolution, listeners, reliable connections.

Connections are message-oriented (each ``send`` delivers one Python object
after the calibrated network latency), reliable and ordered — the properties
the real system gets from TCP on a quiet Fast Ethernet.  Closing an endpoint
delivers EOF to the peer; receives after EOF fail with
:class:`~repro.os.errors.ConnectionClosed`.

That reliability is an invariant of the *healthy* network only.  A run may
attach a :class:`~repro.faults.netfaults.NetworkFaults` model (``faults``
attribute), after which sends can be dropped (partitions, lossy windows) and
latency can spike; fault-induced losses are always visible in the metrics
registry (``net.partition_drops``, ``net.fault_drops``), never silent.  EOF
delivery is exempt from fault drops — a closed endpoint always surfaces to
its peer, the way a broken TCP connection eventually surfaces as a reset.

The message path is two objects long: ``send`` makes the delivery timer the
message rides on, ``recv`` the event its reader waits on, and the timer's
dispatch triggers the one with the other (contract: :class:`Connection`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.calibration import DEFAULT, Calibration
from repro.os.errors import ConnectionClosed, ConnectionRefused, NoSuchHost
from repro.sim.events import NO_CALLBACKS, Event, Timeout, resume_subscribers
from repro.sim.stores import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.os.machine import Machine
    from repro.os.process import OSProcess
    from repro.sim.environment import Environment


class _EOF:
    """Sentinel delivered on close."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<EOF>"


EOF = _EOF()


class _Expired:
    """What :meth:`Connection.recv_or_deadline` yields when time runs out."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<EXPIRED>"


EXPIRED = _Expired()


class Connection:
    """One endpoint of a bidirectional message connection, and its mailbox.

    * **One reader.**  ``_reader`` holds the one pending receive; a second
      :meth:`recv` while it is pending raises ``RuntimeError``.  A reader
      whose process died stays in the slot and swallows the next message.
    * **Nothing on an idle socket.**  ``_buffer`` is ``None`` until a
      message arrives with nobody receiving, and a deque from then on.  A
      parked reader implies an empty buffer.
    * **One allocation per message and side**: the delivery ``Timeout`` the
      message rides as its value, and the one-shot event ``recv`` returns.
    * **The reader is queued, not run.**  A message or EOF that finds a
      reader parked triggers it (``succeed``/``fail``): the receiver runs as
      a kernel event of its own, behind everything already due that instant.
      Dispatching it inside the delivery timer (``Event.dispatch_now``)
      would make a heartbeat two kernel events instead of three, but runs
      the receiver *ahead* of its same-instant neighbours, and that changes
      what fault scenarios do after a broker restart — measured and dropped
      twice (CHANGES.md PR 12, PR 19; DESIGN.md §10).
    * **EOF is sticky.**  It queues behind whatever is still unread; once a
      receive reaches it (or it arrives at an empty mailbox)
      ``closed_remote`` is set and every receive fails from then on.
    """

    __slots__ = (
        "network",
        "env",
        "label",
        "host",
        "_buffer",
        "_reader",
        "peer",
        "closed_local",
        "closed_remote",
        "_pending_recv",
        "_deadline",
        "_deliver_callbacks",
    )

    def __init__(
        self, network: "Network", label: str, host: Optional[str] = None
    ) -> None:
        self.network = network
        self.env = network.env
        self.label = label
        #: Name of the machine this endpoint lives on (used by the fault
        #: model to decide whether a partition cuts this connection).
        self.host = host
        #: Messages that arrived with nobody receiving, oldest first, and
        #: EOF behind them if the peer closed before they were read.
        self._buffer: Optional[Deque[object]] = None
        self._reader: Optional[Event] = None
        self.peer: Optional["Connection"] = None
        self.closed_local = False
        #: The peer closed and nothing it sent is left unread.
        self.closed_remote = False
        #: The receive a timed-out :meth:`recv_or_deadline` left pending
        #: (reused by the next one), and the timer its waiter is parked on.
        self._pending_recv: Optional[Event] = None
        self._deadline: Optional[Timeout] = None
        #: Callback list shared by the delivery timer of every message sent
        #: *to* this endpoint (the dispatch loop reads it, nothing mutates
        #: it), like ``ProcessorSharingQueue._timer_callbacks``.
        self._deliver_callbacks = [self._deliver]

    # -- data transfer -----------------------------------------------------

    def send(self, message: object) -> None:
        """Deliver ``message`` to the peer after one network latency.

        Raises :class:`ConnectionClosed` if this endpoint already closed;
        sends into a remotely-closed connection are dropped (the real-world
        analogue — a TCP RST — would surface asynchronously, and no protocol
        in this codebase depends on it) but counted in ``net.dropped_sends``
        so lost traffic is observable.  An attached fault model may drop the
        message (partition, lossy window) or stretch its latency.
        """
        if self.closed_local:
            raise ConnectionClosed(f"send on closed connection {self.label}")
        peer = self.peer
        assert peer is not None, "send before connection establishment"
        latency = self.network.latency
        faults = self.network.faults
        if faults is not None:
            if faults.partitioned(self.host, peer.host):
                self.network.metrics.counter("net.partition_drops").inc()
                return
            if faults.should_drop(self.host, peer.host, message):
                self.network.metrics.counter("net.fault_drops").inc()
                return
            latency = faults.latency(latency)
        # The message rides the timeout as its value: no per-send closure.
        timer = Timeout(self.env, latency, message)
        timer.callbacks = peer._deliver_callbacks

    def _deliver(self, timer: Event) -> None:
        """Dispatch of a delivery timer: its value arrives at this endpoint."""
        if self.closed_local:
            # The in-flight message raced the local close: it vanishes, as
            # with a TCP RST — but never invisibly.
            self.network.metrics.counter("net.dropped_sends").inc()
        elif self._reader is not None:
            reader, self._reader = self._reader, None
            reader.succeed(timer._value)
        elif self._buffer is None:
            self._buffer = deque((timer._value,))
        else:
            self._buffer.append(timer._value)

    def recv(self) -> Event:
        """Event yielding the next message; fails with ConnectionClosed on EOF.

        A fresh one-shot event per call (callers put it in ``any_of``): a
        buffered message or EOF triggers it, otherwise it parks as reader.
        """
        if self._reader is not None:
            raise RuntimeError(f"concurrent recv on {self.label}")
        event = Event(self.env)
        event._defused = True  # an orphaned reader is not a simulation error
        buffer = self._buffer
        if self.closed_remote or (buffer and buffer[0] is EOF):
            self.closed_remote = True
            event.fail(ConnectionClosed(f"EOF on {self.label}"))
        elif buffer:
            event.succeed(buffer.popleft())
        else:
            self._reader = event
        return event

    def recv_or_deadline(self, delay: float) -> Event:
        """Event for "the next message, or ``delay`` seconds of silence".

        The yielding process resumes with the message, with :data:`EXPIRED`
        once the deadline passes, or with :class:`ConnectionClosed` thrown
        at EOF — the periodic wait of every heartbeat and RPC loop, at the
        cost of its timer alone.  The process parks on a plain timeout; the
        pending receive holds one callback that, when a message wins the
        race, cancels the orphaned timer and resumes the timer's waiters
        inside the receive's own dispatch.  When the timer wins, the same
        receive stays pending for the next call, so silence costs nothing
        on the receive side — and the next call re-arms the spent timer in
        place (this endpoint is its only holder; a *cancelled* one is never
        reused, its dead heap entry may still be pending), so a silent
        period costs one heap entry and no allocation at all.  On a
        same-instant tie the lower sequence number wins and a message that
        lost is returned by the next call.

        One reader per connection: do not mix with :meth:`recv` on the same
        endpoint, and yield the returned event directly — do not keep it.
        """
        get = self._pending_recv
        if get is None:
            get = self._pending_recv = self.recv()
            get.add_callback(self._recv_won)
        if get._processed:
            # Dispatched while nobody was parked (it lost a tie, or the
            # reader was busy elsewhere): hand it over, no deadline needed.
            self._pending_recv = None
            return get
        timer = self._deadline
        if timer is not None and timer._processed and not timer._cancelled:
            # The last deadline expired and resumed its waiter: re-arm it in
            # place of allocating a fresh one (same heap push either way).
            timer._processed = False
            timer.callbacks = NO_CALLBACKS
            timer.delay = delay
            self.env.schedule(timer, delay)
        else:
            timer = self._deadline = Timeout(self.env, delay, EXPIRED)
        return timer

    def _recv_won(self, get: Event) -> None:
        timer = self._deadline
        if timer is None:
            return
        waiter = timer._waiter
        if waiter is not None or timer.callbacks:
            # Someone is parked on the deadline: it is orphaned now, and
            # they resume with the receive's outcome instead.
            self._pending_recv = None
            self._deadline = None
            timer.cancel()
            timer._waiter = None
            resume_subscribers(waiter, timer.callbacks, get)

    def close(self) -> None:
        """Half-close from this side; the peer sees EOF after latency."""
        if self.closed_local:
            return
        self.closed_local = True
        peer = self.peer
        if peer is not None:
            timer = self.env.timeout(self.network.latency)
            timer.add_callback(lambda _ev: peer._deliver_eof())

    def _deliver_eof(self) -> None:
        if self._buffer:
            self._buffer.append(EOF)  # behind what is still unread
            return
        self.closed_remote = True
        if self._reader is not None:
            reader, self._reader = self._reader, None
            reader.fail(ConnectionClosed(f"EOF on {self.label}"))

    def __repr__(self) -> str:
        state = "closed" if self.closed_local else "open"
        return f"<Connection {self.label} {state}>"


class Listener:
    """A listening socket bound to (machine, port)."""

    def __init__(
        self,
        network: "Network",
        machine: "Machine",
        port: int,
        owner: Optional["OSProcess"] = None,
    ) -> None:
        self.network = network
        self.machine = machine
        self.port = port
        self.owner = owner
        self._backlog: Store = Store(network.env)
        self.closed = False

    def accept(self) -> Event:
        """Event yielding the server-side :class:`Connection` of the next
        incoming connection; fails with ConnectionClosed once the listener
        is closed and drained."""
        result = Event(self.network.env)
        result.defuse()  # an orphaned acceptor is not a simulation error
        if self.closed and not len(self._backlog):
            result.fail(
                ConnectionClosed(f"accept on closed {self.machine.name}:{self.port}")
            )
            return result
        get = self._backlog.get()

        def _complete(ev: Event) -> None:
            item = ev.value
            if isinstance(item, _EOF):
                self._backlog.put_nowait(item)
                result.fail(
                    ConnectionClosed(
                        f"listener {self.machine.name}:{self.port} closed"
                    )
                )
            else:
                if self.owner is not None:
                    self.owner.adopt_connection(item)
                result.succeed(item)

        get.add_callback(_complete)
        return result

    def close(self) -> None:
        """Unbind the port; queued-but-unaccepted connections see EOF."""
        if self.closed:
            return
        self.closed = True
        self.network.unbind(self.machine, self.port, self)
        for conn in list(self._backlog.items):
            if isinstance(conn, Connection):
                conn.close()
        self._backlog.put_nowait(EOF)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "listening"
        return f"<Listener {self.machine.name}:{self.port} {state}>"


class Network:
    """All machines on one LAN plus the latency model.

    Also the run-wide blackboard for diagnostics: crashed processes are
    recorded here so experiments can assert clean execution, and an optional
    trace callback observes every connection establishment.
    """

    def __init__(
        self,
        env: "Environment",
        calibration: Calibration = DEFAULT,
    ) -> None:
        from repro.obs import MetricsRegistry, Tracer

        self.env = env
        self.calibration = calibration
        self.latency = calibration.network_latency
        self.machines: Dict[str, "Machine"] = {}
        self._ports: Dict[Tuple[str, int], Listener] = {}
        self.crashed: List["OSProcess"] = []
        self.trace: Optional[Callable[[str], None]] = None
        self._ephemeral: Dict[str, int] = {}
        #: Optional pluggable fault model (see :mod:`repro.faults`): consulted
        #: by every send and connect once attached.  None = healthy network.
        self.faults = None
        #: Client-side endpoint of every connection ever established (each
        #: knows its peer); pruned of fully-closed pairs on each sever sweep
        #: and — amortized — as new connections are established, so a
        #: long-running service does not retain every socket it ever opened.
        self._connections: List[Connection] = []
        self._prune_connections_at = 1024
        #: Run-wide observability: the span tracer and metrics registry every
        #: program body reaches via ``repro.obs.tracer_of`` / ``metrics_of``.
        self.tracer = Tracer(env)
        self.metrics = MetricsRegistry(env)

    def ephemeral_port(self, machine: "Machine") -> int:
        """A fresh high port on ``machine`` (never reused within a run)."""
        port = self._ephemeral.get(machine.name, 40000)
        self._ephemeral[machine.name] = port + 1
        return port

    # -- machines --------------------------------------------------------

    def add_machine(self, machine: "Machine") -> "Machine":
        """Attach ``machine`` to this LAN (names must be unique)."""
        if machine.name in self.machines:
            raise ValueError(f"duplicate machine name {machine.name!r}")
        machine.network = self
        self.machines[machine.name] = machine
        return machine

    def lookup(self, host: str) -> "Machine":
        """Resolve ``host`` to a machine or raise :class:`NoSuchHost`."""
        try:
            return self.machines[host]
        except KeyError:
            raise NoSuchHost(host) from None

    def record_crash(self, proc: "OSProcess") -> None:
        """Remember a process that died with an unhandled exception."""
        self.crashed.append(proc)

    # -- sockets ---------------------------------------------------------

    def listen(self, proc: "OSProcess", port: int) -> Listener:
        """Bind a listener to (proc's machine, port) for ``proc``."""
        key = (proc.machine.name, port)
        if key in self._ports:
            raise ConnectionRefused(f"port {port} on {proc.machine.name} in use")
        listener = Listener(self, proc.machine, port, owner=proc)
        self._ports[key] = listener
        return listener

    def unbind(self, machine: "Machine", port: int, listener: Listener) -> None:
        """Free a port if ``listener`` still owns it."""
        key = (machine.name, port)
        if self._ports.get(key) is listener:
            del self._ports[key]

    def connect(self, proc: "OSProcess", host: str, port: int) -> Event:
        """Event yielding the client-side endpoint after one latency."""
        env = self.env
        result = Event(env)

        def _establish(_ev: Event) -> None:
            if host not in self.machines:
                result.fail(NoSuchHost(host))
                return
            target = self.machines[host]
            if not target.up:
                result.fail(ConnectionRefused(f"{host} is down"))
                return
            if self.faults is not None and self.faults.partitioned(
                proc.machine.name, host
            ):
                self.metrics.counter("net.partition_refused").inc()
                result.fail(ConnectionRefused(f"{host} unreachable (partition)"))
                return
            listener = self._ports.get((host, port))
            if listener is None or listener.closed:
                result.fail(ConnectionRefused(f"{host}:{port}"))
                return
            label = f"{proc.machine.name}:{proc.pid}->{host}:{port}"
            client = Connection(self, label, host=proc.machine.name)
            server = Connection(self, label + " (server)", host=host)
            client.peer = server
            server.peer = client
            self._connections.append(client)
            if len(self._connections) >= self._prune_connections_at:
                self._prune_connections()
            proc.adopt_connection(client)
            listener._backlog.put_nowait(server)
            if self.trace is not None:
                self.trace(f"connect {label} at {env.now:.6f}")
            result.succeed(client)

        env.timeout(self.latency).add_callback(_establish)
        return result

    def _prune_connections(self) -> None:
        """Forget fully-closed connection pairs (amortized O(1) per connect).

        The doubling threshold keeps the scan linear in *live* connections:
        a steady-state service with N live sockets rescans only after ~N new
        establishments, while the list itself stays O(N) instead of growing
        with every connection the run ever made."""
        self._connections = [
            conn
            for conn in self._connections
            if not (
                conn.closed_local
                and (conn.peer is None or conn.peer.closed_local)
            )
        ]
        self._prune_connections_at = max(1024, 2 * len(self._connections))

    def sever(self, predicate: Callable[[Optional[str], Optional[str]], bool]) -> int:
        """Close both ends of every live connection matching ``predicate``.

        ``predicate(host_a, host_b)`` receives the endpoint machine names.
        Used by the fault injector at partition onset: a cut LAN eventually
        surfaces to both peers as a broken connection (compressed here into
        an immediate EOF), which is what lets every recovery protocol in the
        stack run instead of waiting on messages that can never arrive.
        Returns the number of connections severed.
        """
        severed = 0
        live: List[Connection] = []
        for conn in self._connections:
            peer = conn.peer
            if conn.closed_local and (peer is None or peer.closed_local):
                continue  # both ends gone: forget the pair
            live.append(conn)
            if peer is not None and predicate(conn.host, peer.host):
                conn.close()
                peer.close()
                severed += 1
        self._connections = live
        if severed:
            self.metrics.counter("net.severed_connections").inc(severed)
        return severed

    def __repr__(self) -> str:
        return (
            f"<Network {len(self.machines)} machines, "
            f"{len(self._ports)} open ports>"
        )
