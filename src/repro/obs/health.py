"""Simulated-time health watchdogs and SLO reports for the broker.

The chaos experiment proved the broker *recovers*; this module watches it
*while it runs*.  A :class:`HealthMonitor` is an ordinary simulation process
ticking on the simulated clock, so its checks are deterministic facts of the
run like everything else.  Each pass evaluates four operational watchdogs
against live broker state:

* **heartbeat gaps** — a tracked machine silent longer than the liveness
  deadline (the sweeper should have acted; a gap beyond it means detection
  itself is lagging);
* **queue-depth watermarks** — the pending queue above its high-water
  threshold (demand outrunning supply, or a scheduler stall);
* **journal flush lag** — on a durable broker, buffered journal records
  older than a few flush intervals (a stalled disk or wedged flusher:
  exactly the state a crash would turn into lost durability);
* **replication lag** — on a broker with a warm standby, flushed-but-unacked
  ship-stream characters beyond the threshold (a slow, dead or partitioned
  standby: exactly the window a failover would lose).

None of them is a safety verdict: whether the broker kept its guarantees
is the invariant oracle's call alone (:mod:`repro.broker.invariants`).
Anomalies are edge-triggered into ``health.*`` counters and the broker
event log, and summarised in an end-of-run :class:`HealthReport` — which is
also the single source of truth for the chaos table's ``stuck_allocations``.
:func:`evaluate_slos` turns the grant-wait histogram into a pass/fail
:class:`SLOReport` (the ``python -m repro slo`` command).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class HealthReport:
    """End-of-run summary of everything the watchdogs saw.

    ``stuck_allocations`` is the number of machines still holding an
    allocation at report time — the chaos experiment's leaked-allocation
    count (its meta is emitted from here).
    """

    time: float
    checks: int
    stuck_allocations: int
    allocated_hosts: List[str] = field(default_factory=list)
    heartbeat_gap_events: int = 0
    max_heartbeat_gap: float = 0.0
    queue_breaches: int = 0
    queue_high_watermark: int = 0
    pending: int = 0
    journal_lag_events: int = 0
    max_journal_lag: float = 0.0
    replication_lag_events: int = 0
    max_replication_lag: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (deterministic; safe to embed in merged docs)."""
        return {
            "time": round(self.time, 6),
            "checks": self.checks,
            "stuck_allocations": self.stuck_allocations,
            "allocated_hosts": list(self.allocated_hosts),
            "heartbeat_gap_events": self.heartbeat_gap_events,
            "max_heartbeat_gap": round(self.max_heartbeat_gap, 6),
            "queue_breaches": self.queue_breaches,
            "queue_high_watermark": self.queue_high_watermark,
            "pending": self.pending,
            "journal_lag_events": self.journal_lag_events,
            "max_journal_lag": round(self.max_journal_lag, 6),
            "replication_lag_events": self.replication_lag_events,
            "max_replication_lag": self.max_replication_lag,
        }

    def render(self) -> str:
        """Human-readable health summary."""
        held = f" ({', '.join(self.allocated_hosts)})" if self.allocated_hosts else ""
        lines = [
            f"== health @ t={self.time:.3f}s ({self.checks} checks) ==",
            f"allocated at end: {self.stuck_allocations}{held}",
            (
                f"heartbeat gaps: {self.heartbeat_gap_events} "
                f"(max gap: {self.max_heartbeat_gap:.3f}s)"
            ),
            (
                f"queue: high watermark {self.queue_high_watermark}, "
                f"{self.queue_breaches} breaches, "
                f"{self.pending} pending at end"
            ),
        ]
        if self.journal_lag_events or self.max_journal_lag:
            lines.append(
                f"journal lag: {self.journal_lag_events} events "
                f"(max lag: {self.max_journal_lag:.3f}s)"
            )
        if self.replication_lag_events or self.max_replication_lag:
            lines.append(
                f"replication lag: {self.replication_lag_events} events "
                f"(max lag: {self.max_replication_lag} chars)"
            )
        return "\n".join(lines) + "\n"


class HealthMonitor:
    """A simulated-time watchdog process over one :class:`BrokerService`.

    Construct with the service (after ``wait_ready`` is a natural spot),
    call :meth:`start` to begin periodic checks, and :meth:`report` at the
    end of the run.  Reads ``service.state`` on every pass, so broker
    restarts (which swap the state object) are followed transparently.
    All bookkeeping is plain counters plus per-host edge-trigger sets, so a
    monitor adds one timer event per interval and nothing else.
    """

    #: Seconds between watchdog passes (one timer event each).
    check_interval = 5.0

    def __init__(self, service: Any) -> None:
        self.service = service
        self.env = service.env
        self.metrics = service.metrics
        cal = service.cluster.network.calibration
        # Thresholds, each derived from the calibration the broker acts on:
        # a machine silent past the liveness deadline, a queue deeper than
        # the managed hosts, journal records buffered for four flush
        # intervals (a healthy flusher drains well within one), and the
        # in-flight ship window a healthy standby acks promptly.
        self.heartbeat_gap = cal.liveness_deadline
        self.queue_high = max(4, len(service.managed_hosts))
        self.journal_lag = 4.0 * cal.journal_flush_interval
        self.replication_lag = cal.ship_window_chars
        self.checks = 0
        self.gap_events = 0
        self.queue_breaches = 0
        self.queue_high_watermark = 0
        self.max_heartbeat_gap = 0.0
        self.journal_lag_events = 0
        self.max_journal_lag = 0.0
        self.replication_lag_events = 0
        self.max_replication_lag = 0
        self._gap_flagged: set = set()
        self._queue_flagged = False
        self._journal_flagged = False
        self._replication_flagged = False
        self._proc = None

    def start(self) -> "HealthMonitor":
        """Begin periodic checks (idempotent); returns self for chaining."""
        if self._proc is None:
            self._proc = self.env.process(self._run())
        return self

    def _run(self):
        while True:
            yield self.env.timeout(self.check_interval)
            self.check()

    def check(self) -> None:
        """Run one watchdog pass against current broker state.

        Anomalies are edge-triggered: a condition increments its counter
        and logs once when it appears on a host, and re-arms only after
        the host recovers — a machine silent for ten intervals is one
        event, not ten."""
        self.checks += 1
        now = self.env.now
        state = self.service.state

        gaps_now: set = set()
        for record in state.tracked_records():
            if record.last_seen < 0.0:
                continue
            if record.borrowed_from is not None:
                # A borrowed machine's daemon heartbeats to the shard that
                # *owns* it; the borrowing shard's record refreshes only on
                # loan events, so a gap here is the loan working, not
                # detection lagging.
                continue
            gap = now - record.last_seen
            if gap > self.max_heartbeat_gap:
                self.max_heartbeat_gap = gap
            if gap > self.heartbeat_gap:
                gaps_now.add(record.host)
                if record.host not in self._gap_flagged:
                    self.gap_events += 1
                    self.metrics.counter("health.heartbeat_gaps").inc()
                    self.service.log(
                        event="health_heartbeat_gap", host=record.host, gap=gap
                    )
        self._gap_flagged = gaps_now

        depth = len(state.pending)
        if depth > self.queue_high_watermark:
            self.queue_high_watermark = depth
        if depth > self.queue_high:
            if not self._queue_flagged:
                self.queue_breaches += 1
                self.metrics.counter("health.queue_breaches").inc()
                self.service.log(event="health_queue_high", depth=depth)
            self._queue_flagged = True
        else:
            self._queue_flagged = False

        journal = getattr(self.service, "journal", None)
        if journal is not None:
            lag = journal.flush_lag(now)
            if lag > self.max_journal_lag:
                self.max_journal_lag = lag
            if lag > self.journal_lag:
                if not self._journal_flagged:
                    self.journal_lag_events += 1
                    self.metrics.counter("health.journal_lag").inc()
                    self.service.log(
                        event="health_journal_lag",
                        lag=lag,
                        pending_ops=journal.pending_ops(),
                    )
                self._journal_flagged = True
            else:
                self._journal_flagged = False

        # Replication lag (the warm-standby watchdog): flushed ship-stream
        # characters the standby has not acknowledged.  A promoted broker's
        # fresh journal feeds no stream, so the watchdog follows failovers
        # transparently (and is inert entirely without a standby).
        stream = None
        if journal is not None:
            # Imported here: the broker imports this package.
            from repro.broker.replica import ship_stream

            stream = ship_stream(journal)
        if stream is not None:
            ship_lag = stream.lag()
            if ship_lag > self.max_replication_lag:
                self.max_replication_lag = ship_lag
            if ship_lag > self.replication_lag:
                if not self._replication_flagged:
                    self.replication_lag_events += 1
                    self.metrics.counter("health.replication_lag").inc()
                    self.service.log(
                        event="health_replication_lag",
                        lag_chars=ship_lag,
                        acked_offset=stream.acked_offset,
                        flushed_offset=stream.flushed_offset,
                    )
                self._replication_flagged = True
            else:
                self._replication_flagged = False

    def report(self) -> HealthReport:
        """Run a final check and summarise the whole run."""
        self.check()
        state = self.service.state
        allocated = sorted(
            host
            for host, record in state.machines.items()
            if record.allocation is not None
        )
        return HealthReport(
            time=self.env.now,
            checks=self.checks,
            stuck_allocations=len(allocated),
            allocated_hosts=allocated,
            heartbeat_gap_events=self.gap_events,
            max_heartbeat_gap=self.max_heartbeat_gap,
            queue_breaches=self.queue_breaches,
            queue_high_watermark=self.queue_high_watermark,
            pending=len(state.pending),
            journal_lag_events=self.journal_lag_events,
            max_journal_lag=self.max_journal_lag,
            replication_lag_events=self.replication_lag_events,
            max_replication_lag=self.max_replication_lag,
        )


@dataclass
class SLObjective:
    """One service-level objective: a measured value against a bound."""

    name: str
    actual: float
    objective: float
    ok: bool

    def render(self) -> str:
        """One pass/fail line."""
        mark = "PASS" if self.ok else "FAIL"
        return f"{mark} {self.name}: {self.actual:g} (objective <= {self.objective:g})"


@dataclass
class SLOReport:
    """A set of evaluated objectives; passes only if every one does."""

    objectives: List[SLObjective] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every objective held."""
        return all(objective.ok for objective in self.objectives)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for merged documents."""
        return {
            "passed": self.passed,
            "objectives": [
                {
                    "name": o.name,
                    "actual": o.actual,
                    "objective": o.objective,
                    "ok": o.ok,
                }
                for o in self.objectives
            ],
        }

    def render(self) -> str:
        """Human-readable SLO report."""
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"== SLO report: {verdict} =="]
        lines.extend(objective.render() for objective in self.objectives)
        return "\n".join(lines) + "\n"


def evaluate_slos(service: Any, grant_wait_p95: float = 30.0) -> SLOReport:
    """Evaluate the run's service-level objective: 95th-percentile grant
    wait below ``grant_wait_p95`` (the paper's allocation-latency claim as
    a bound)."""
    p95 = service.metrics.histogram("broker.grant_wait").percentile(0.95)
    return SLOReport(
        objectives=[
            SLObjective(
                name="grant_wait_p95_seconds",
                actual=p95,
                objective=grant_wait_p95,
                ok=p95 <= grant_wait_p95,
            )
        ]
    )
