"""Windowed parallel lane executor: conservative PDES across OS processes.

The in-process laned kernel (:mod:`repro.sim.environment`) preserves the
serial total order exactly, which makes it the determinism-gated mode for the
full cluster simulation — but it cannot use more than one core.  This module
is the other half of the partitioned-kernel story: *state-disjoint*
partitions, each owning a private :class:`~repro.sim.environment.Environment`,
advance in lockstep windows and exchange timestamped envelopes.  Because a
cross-partition message always takes at least the LAN's minimum latency
(``lookahead``), every lane may safely execute the half-open window

    [clock, min(next event over all lanes) + lookahead)

without hearing from its neighbors mid-window: any envelope generated inside
the window arrives at or after its end (DESIGN.md §15 gives the argument).
That is classic conservative window synchronization — barriers, no
null-message flood — and the windows are what amortize IPC when lanes run as
forked worker processes.

Determinism: lanes are seeded from ``(seed, lane_id)``, envelopes are
injected in canonical ``(arrival time, src lane, send seq)`` order — the
tie-break rule of the partitioned kernel — and the merged document is
digested with the same canonical JSON the sweep gate uses, so the ``serial``
and ``mp`` backends must (and do, see ``tests/sim/test_lanes.py``) produce
sha256-identical documents.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.calibration import DEFAULT
from repro.sim.environment import Environment

#: An envelope is ``(when, src_lane, seq, dst_lane, payload)``; the first
#: three fields are its canonical injection sort key.
Envelope = Tuple[float, int, int, int, Any]


def _lane_seed(seed: int, lane_id: int) -> int:
    """Independent, reproducible per-lane seed (stable across backends)."""
    digest = hashlib.sha256(f"{seed}:lane:{lane_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def canonical_digest(document: Dict[str, Any]) -> str:
    """sha256 of the byte-stable serialization (the sweep-gate technique)."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class LaneRuntime:
    """One partition's private world: environment, mailbox, send counter.

    The ``build`` callback of :class:`LanedSimulation` receives one runtime
    per lane and populates it with processes via ``rt.env`` plus a message
    handler via :meth:`on_message`.  All cross-partition communication goes
    through :meth:`post` — the runtime records outgoing envelopes for the
    executor to route at the next window barrier.
    """

    def __init__(
        self, lane_id: int, nlanes: int, lookahead: float, seed: int
    ) -> None:
        self.lane_id = lane_id
        self.nlanes = nlanes
        self.lookahead = lookahead
        #: The simulation-wide root seed (lane-independent): derive actor
        #: randomness from this when behavior must not depend on which lane
        #: an actor was partitioned into.
        self.seed = seed
        self.env = Environment(seed=_lane_seed(seed, lane_id))
        self.sent = 0
        self.received = 0
        self.outgoing: List[Envelope] = []
        self._handler: Optional[Callable[[Any], None]] = None
        #: Optional result callback, set by the builder; its return value
        #: lands in the merged document (must be JSON-serializable).
        self.result: Optional[Callable[[], Any]] = None

    def on_message(self, handler: Callable[[Any], None]) -> None:
        """Register the callable invoked with each delivered payload."""
        self._handler = handler

    def post(self, dst_lane: int, payload: Any, delay: Optional[float] = None) -> None:
        """Send ``payload`` to ``dst_lane``, arriving ``delay`` from now.

        ``delay`` defaults to the lookahead and may never undercut it — that
        lower bound is the safety argument of the whole executor.  Sends to
        the local lane skip the envelope machinery (same arrival semantics).
        """
        if delay is None:
            delay = self.lookahead
        elif delay < self.lookahead:
            raise ValueError(
                f"delay {delay!r} undercuts the lookahead {self.lookahead!r}"
            )
        self.sent += 1
        if dst_lane == self.lane_id:
            self._schedule_delivery(self.env.now + delay, payload)
        else:
            self.outgoing.append(
                (self.env.now + delay, self.lane_id, self.sent, dst_lane, payload)
            )

    def _schedule_delivery(self, when: float, payload: Any) -> None:
        timer = self.env.timeout(when - self.env.now, payload)
        timer.add_callback(self._deliver)

    def _deliver(self, event) -> None:
        self.received += 1
        handler = self._handler
        if handler is not None:
            handler(event._value)

    def inject(self, envelopes: List[Envelope]) -> None:
        """Schedule incoming envelopes (already canonically sorted)."""
        for when, _src, _seq, _dst, payload in envelopes:
            self._schedule_delivery(when, payload)

    def drain_outgoing(self) -> List[Envelope]:
        """Take (and clear) the envelopes produced since the last drain."""
        out = self.outgoing
        self.outgoing = []
        return out

    def summary(self) -> Dict[str, Any]:
        """The per-lane slice of the merged document (backend-independent)."""
        stats = self.env.heap_stats()
        return {
            "lane": self.lane_id,
            "clock": round(self.env.now, 9),
            "events": stats["processed"],
            "pushes": stats["pushes"],
            "sent": self.sent,
            "received": self.received,
            "result": self.result() if self.result is not None else None,
        }


class LanedSimulation:
    """A partitioned simulation run in conservative lookahead windows.

    Parameters
    ----------
    lanes:
        Number of partitions.
    build:
        ``build(rt: LaneRuntime) -> None`` — populates one lane.  Must
        derive all randomness from ``rt.env`` and touch no state shared
        with other lanes (the mp backend runs each lane in its own OS
        process, so sharing cannot work by construction; the serial backend
        deliberately offers nothing more).
    lookahead:
        Minimum cross-lane delay, in simulated seconds; defaults to the
        calibrated LAN latency.  Must be strictly positive — with zero
        lookahead the window degenerates and no lane could ever advance.
    seed:
        Root seed; lanes derive independent sub-seeds from it.
    """

    def __init__(
        self,
        lanes: int,
        build: Callable[[LaneRuntime], None],
        lookahead: float = DEFAULT.network_latency,
        seed: int = 0,
    ) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes!r}")
        if lookahead <= 0:
            raise ValueError("conservative execution needs lookahead > 0")
        self.lanes = lanes
        self.build = build
        self.lookahead = lookahead
        self.seed = seed

    # -- shared window protocol -------------------------------------------

    def _next_window(
        self,
        horizon: float,
        peeks: List[float],
        inboxes: List[List[Envelope]],
    ) -> Optional[float]:
        """End of the next safe window, or None when the run is over.

        The bound folds undelivered envelopes in: an inbox arrival is a
        pending event its lane just does not know about yet.
        """
        floor = float("inf")
        for peek, inbox in zip(peeks, inboxes):
            if peek < floor:
                floor = peek
            for envelope in inbox:
                if envelope[0] < floor:
                    floor = envelope[0]
        if floor == float("inf") or floor >= horizon:
            return None
        return min(floor + self.lookahead, horizon)

    @staticmethod
    def _route(
        outgoing: List[Envelope], inboxes: List[List[Envelope]]
    ) -> int:
        for envelope in outgoing:
            inboxes[envelope[3]].append(envelope)
        return len(outgoing)

    def _document(
        self,
        horizon: float,
        windows: int,
        envelopes: int,
        in_flight: int,
        summaries: List[Dict[str, Any]],
    ) -> Dict[str, Any]:
        doc = {
            "lanes": self.lanes,
            "seed": self.seed,
            "lookahead": self.lookahead,
            "horizon": horizon,
            "windows": windows,
            "envelopes": envelopes,
            "in_flight": in_flight,
            "lane_results": summaries,
        }
        doc["digest"] = canonical_digest(doc)
        return doc

    # -- serial backend ----------------------------------------------------

    def run(self, horizon: float, backend: str = "serial") -> Dict[str, Any]:
        """Run to ``horizon`` (half-open); returns the merged document.

        ``backend="serial"`` drives every lane in this process (the
        reference executor); ``backend="mp"`` forks one worker per lane and
        must produce a byte-identical document.
        """
        if backend == "serial":
            return self._run_serial(horizon)
        if backend == "mp":
            return self._run_mp(horizon)
        raise ValueError(f"unknown backend {backend!r}")

    def _run_serial(self, horizon: float) -> Dict[str, Any]:
        runtimes = [
            LaneRuntime(i, self.lanes, self.lookahead, self.seed)
            for i in range(self.lanes)
        ]
        for rt in runtimes:
            self.build(rt)
        inboxes: List[List[Envelope]] = [[] for _ in runtimes]
        peeks = [rt.env.peek() for rt in runtimes]
        windows = 0
        envelopes = 0
        while True:
            until = self._next_window(horizon, peeks, inboxes)
            if until is None:
                break
            outgoing: List[Envelope] = []
            for i, rt in enumerate(runtimes):
                if inboxes[i]:
                    inboxes[i].sort(key=lambda e: e[:3])
                    rt.inject(inboxes[i])
                    inboxes[i] = []
                rt.env.run_window(until)
                outgoing.extend(rt.drain_outgoing())
                peeks[i] = rt.env.peek()
            envelopes += self._route(outgoing, inboxes)
            windows += 1
        in_flight = sum(len(inbox) for inbox in inboxes)
        for rt in runtimes:
            if rt.env.now < horizon:
                rt.env.run_window(horizon)
        return self._document(
            horizon,
            windows,
            envelopes,
            in_flight,
            [rt.summary() for rt in runtimes],
        )

    # -- multiprocessing backend ------------------------------------------

    def _run_mp(self, horizon: float) -> Dict[str, Any]:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        pipes = []
        workers = []
        for i in range(self.lanes):
            parent_end, child_end = ctx.Pipe()
            worker = ctx.Process(
                target=self._lane_worker,
                args=(i, child_end, horizon),
                daemon=True,
            )
            worker.start()
            child_end.close()
            pipes.append(parent_end)
            workers.append(worker)
        try:
            peeks = [self._expect(conn, "ready")[0] for conn in pipes]
            inboxes: List[List[Envelope]] = [[] for _ in pipes]
            windows = 0
            envelopes = 0
            while True:
                until = self._next_window(horizon, peeks, inboxes)
                if until is None:
                    break
                for i, conn in enumerate(pipes):
                    inboxes[i].sort(key=lambda e: e[:3])
                    conn.send(("window", until, inboxes[i]))
                    inboxes[i] = []
                outgoing: List[Envelope] = []
                for i, conn in enumerate(pipes):
                    lane_out, peek = self._expect(conn, "done")
                    outgoing.extend(lane_out)
                    peeks[i] = peek
                envelopes += self._route(outgoing, inboxes)
                windows += 1
            in_flight = sum(len(inbox) for inbox in inboxes)
            summaries = []
            for conn in pipes:
                conn.send(("finish",))
            for conn in pipes:
                summaries.append(self._expect(conn, "result")[0])
            return self._document(
                horizon, windows, envelopes, in_flight, summaries
            )
        finally:
            for conn in pipes:
                conn.close()
            for worker in workers:
                worker.join(timeout=10)
                if worker.is_alive():  # pragma: no cover - hang backstop
                    worker.terminate()

    @staticmethod
    def _expect(conn, kind: str) -> tuple:
        message = conn.recv()
        if message[0] == "error":  # pragma: no cover - worker crash surface
            raise RuntimeError(f"lane worker failed: {message[1]}")
        if message[0] != kind:  # pragma: no cover - protocol bug surface
            raise RuntimeError(f"expected {kind!r}, got {message[0]!r}")
        return message[1:]

    def _lane_worker(self, lane_id: int, conn, horizon: float) -> None:
        """Runs in the forked child: one lane, driven over the pipe."""
        try:
            rt = LaneRuntime(lane_id, self.lanes, self.lookahead, self.seed)
            self.build(rt)
            conn.send(("ready", rt.env.peek()))
            while True:
                message = conn.recv()
                if message[0] == "window":
                    until, incoming = message[1], message[2]
                    rt.inject(incoming)
                    rt.env.run_window(until)
                    conn.send(("done", rt.drain_outgoing(), rt.env.peek()))
                elif message[0] == "finish":
                    if rt.env.now < horizon:
                        rt.env.run_window(horizon)
                    conn.send(("result", rt.summary()))
                    return
                else:  # pragma: no cover - protocol bug surface
                    raise RuntimeError(f"unknown command {message[0]!r}")
        except BaseException as exc:  # pragma: no cover - crash surface
            try:
                conn.send(("error", repr(exc)))
            except OSError:
                pass
            raise
        finally:
            conn.close()


# -- the ring benchmark workload -------------------------------------------


def lane_ring(
    actors: int,
    mean: float = 0.0002,
    send_every: int = 4,
) -> Callable[[LaneRuntime], None]:
    """Builder for the standard partitioned-kernel benchmark workload.

    ``actors`` simulated actors are split contiguously across lanes.  Each
    actor runs a local loop — an exponential think time of ``mean`` seconds
    drawn from its own named stream, then a counter bump — and every
    ``send_every``-th iteration messages its ring successor, which usually
    lives in the neighboring lane.  With ``mean`` on the order of the
    lookahead this produces windows holding ``~(actors/lanes) *
    lookahead/mean`` events per lane: the knob that decides whether windows
    amortize the per-barrier IPC of the mp backend.
    """

    def build(rt: LaneRuntime) -> None:
        from repro.sim.rng import SimRandom

        lo = rt.lane_id * actors // rt.nlanes
        hi = (rt.lane_id + 1) * actors // rt.nlanes
        counters = {"ticks": 0, "messages": 0}
        # Root-seeded streams: an actor draws the same think times no matter
        # which lane it is partitioned into, so runs at different lane
        # counts simulate the same world (only in-flight cutoffs differ).
        root_rng = SimRandom(rt.seed)

        def lane_of_actor(gid: int) -> int:
            return gid * rt.nlanes // actors

        def actor(gid: int):
            rng = root_rng.stream(f"actor:{gid}")
            iteration = 0
            while True:
                yield rt.env.timeout(float(rng.exponential(mean)))
                counters["ticks"] += 1
                iteration += 1
                if iteration % send_every == 0:
                    successor = (gid + 1) % actors
                    rt.post(lane_of_actor(successor), ("ping", gid))

        def handle(payload: Any) -> None:
            counters["messages"] += 1

        rt.on_message(handle)
        for gid in range(lo, hi):
            rt.env.process(actor(gid), name=f"actor-{gid}")
        rt.result = lambda: dict(counters)

    return build
