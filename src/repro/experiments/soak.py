"""Service-mode soak — the durable broker under a long arrival trace.

The chaos experiment proves one crash is survivable; this one proves the
broker can be *left running*.  A soak drives a large Poisson arrival trace
(diurnal rate curve, short sequential jobs through the full ``app`` →
``rsh'`` → grant → subapp path) over a mixed public/private cluster whose
owners come and go on office-hour windows, crashes and restarts the broker
mid-run, and insists that at the end:

* every submission completed (the trace is fully drained),
* no machine is left allocated (zero stuck allocations after settle),
* the journal stayed bounded (compaction kept the WAL near its ceiling
  instead of growing with the trace),
* the service's memory stayed flat (a ``ClusterSpec.bounded`` cluster:
  bounded metrics, no span recording, a capped event log, pruned finished
  jobs — asserted by the ``soak`` gate of ``benchmarks/gates.py``, which
  meters the second half of the run against a per-submission budget).

Everything that lands in the :class:`SoakReport`'s deterministic part is a
pure function of the seed; wall-clock and memory numbers live in separate
fields that pinned artifacts must ignore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import Cluster, ClusterSpec, MachineSpec
from repro.obs import HealthMonitor


@dataclass
class SoakReport:
    """Everything a soak run measured.

    Fields up to ``journal`` are deterministic (same seed, same values);
    ``memory_samples`` holds wall-side ``tracemalloc`` checkpoints
    ``(submissions_done, traced_bytes)`` and is empty unless the caller
    asked for metering.
    """

    seed: int
    machines: int
    private_machines: int
    submissions: int
    completed: int
    failed: int
    restarts: int
    recoveries_from_journal: float
    recovery_conflicts: float
    replayed_records: float
    journal_compactions: int
    journal_bytes: int
    stuck_allocations: int
    stuck_events: int
    journal_lag_events: int
    revocations: int
    grants: int
    finished_at: float
    health: Dict[str, Any] = field(default_factory=dict)
    memory_samples: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def drained(self) -> bool:
        """Every submission ran to completion."""
        return self.completed == self.submissions and self.failed == 0

    def render(self) -> str:
        """Human-readable soak summary."""
        lines = [
            f"== soak: {self.submissions} submissions over "
            f"{self.machines} machines ({self.private_machines} private), "
            f"seed {self.seed} ==",
            (
                f"completed={self.completed} failed={self.failed} "
                f"restarts={self.restarts} "
                f"finished_at={self.finished_at:.1f}s"
            ),
            (
                f"recovery: journal={self.recoveries_from_journal:g} "
                f"replayed={self.replayed_records:g} "
                f"conflicts={self.recovery_conflicts:g}"
            ),
            (
                f"journal: compactions={self.journal_compactions} "
                f"bytes={self.journal_bytes}"
            ),
            (
                f"health: stuck={self.stuck_allocations} "
                f"stuck_events={self.stuck_events} "
                f"journal_lag_events={self.journal_lag_events}"
            ),
            f"grants={self.grants} revocations={self.revocations}",
        ]
        return "\n".join(lines) + "\n"


def run_soak(
    seed: int = 1,
    machines: int = 12,
    submissions: int = 2000,
    journal: bool = True,
    restarts: int = 1,
    day: float = 600.0,
    base_rate: float = 0.3,
    peak_rate: float = 1.5,
    min_seconds: float = 0.5,
    max_seconds: float = 6.0,
    private_fraction: float = 0.25,
    memory_checkpoints: int = 0,
    progress=None,
) -> SoakReport:
    """Run the service-mode soak; see the module docstring.

    ``machines`` counts worker machines (the broker/submit host n00 is
    extra); the last ``private_fraction`` of them are private, with owners
    replaying diurnal office-hour windows.  ``restarts`` broker
    crash+restart pairs are spread evenly across the trace.

    ``memory_checkpoints`` > 0 samples ``tracemalloc`` that many times
    across the run (wall-side metering only — the deterministic report is
    identical with metering on or off).  ``progress`` is an optional
    ``callable(done, total)`` invoked at every checkpoint boundary.
    """
    from repro.workloads import (
        diurnal_owner_windows,
        replay_owner_windows,
        trace_arrivals,
    )

    n_private = int(machines * private_fraction)
    n_public = machines - n_private
    specs = [MachineSpec(name="n00")]
    specs += [MachineSpec(name=f"n{i:02d}") for i in range(1, n_public + 1)]
    specs += [
        MachineSpec(name=f"p{i:02d}", private_owner=f"owner{i}")
        for i in range(n_private)
    ]

    cluster = Cluster(ClusterSpec(machines=specs, seed=seed, bounded=True))
    env = cluster.env
    svc = cluster.start_broker(journal=journal)
    svc.wait_ready()
    monitor = HealthMonitor(svc).start()

    # The arrival trace: Poisson with a diurnal rate, capped at exactly
    # ``submissions`` jobs.  The horizon is sized for the worst case — a
    # short trace spent entirely in the diurnal trough — because max_jobs
    # is what actually ends the trace: a larger horizon never changes the
    # first ``submissions`` arrivals, it only guarantees they exist.
    horizon = day + 4.0 * submissions / base_rate
    trace = trace_arrivals(
        env,
        horizon=horizon,
        base_rate=base_rate,
        peak_rate=peak_rate,
        day=day,
        min_seconds=min_seconds,
        max_seconds=max_seconds,
        max_jobs=submissions,
    )
    if len(trace) < submissions:
        raise RuntimeError(
            f"trace produced {len(trace)}/{submissions} arrivals; "
            f"raise the horizon"
        )
    last_arrival = trace.arrivals[-1]

    for host, windows in diurnal_owner_windows(
        env,
        [spec.name for spec in specs if spec.private_owner],
        horizon=last_arrival,
        day=day,
    ):
        env.process(
            replay_owner_windows(env, cluster.machine(host), windows),
            name=f"soak-owner@{host}",
        )

    done = {"completed": 0, "failed": 0}

    def _on_exit(event) -> None:
        done["completed"] += 1
        if event.value != 0:
            done["failed"] += 1

    submit_hosts = ["n00"] + (["n01"] if n_public >= 1 else [])

    def _submissions():
        for i, (at, duration) in enumerate(trace.jobs()):
            if at > env.now:
                yield env.timeout(at - env.now)
            handle = svc.submit(
                submit_hosts[i % len(submit_hosts)],
                ["rsh", "anylinux", "compute", f"{duration:g}"],
                uid="soak",
            )
            # Only the terminated hook survives; retaining 100k JobHandles
            # (each pinning a span and a process) is exactly the leak the
            # soak exists to rule out.
            handle.proc.terminated.add_callback(_on_exit)
            del handle

    env.process(_submissions(), name="soak-arrivals")

    def _restarts():
        for i in range(restarts):
            target = last_arrival * (i + 1) / (restarts + 1)
            if target > env.now:
                yield env.timeout(target - env.now)
            svc.crash_broker()
            yield env.timeout(2.0)
            svc.restart_broker()

    if restarts:
        env.process(_restarts(), name="soak-restarts")

    # Drive to drain with periodic housekeeping.  The simulation's object
    # graph is cyclic (events <-> callbacks <-> processes), so finished
    # work becomes *collectable* garbage, not freed memory; a long-running
    # service must collect it or watch RSS grow with the trace.  The
    # collect is wall-side only — it cannot move a single simulated event —
    # and memory is sampled right after it, so the flatness gate measures
    # live retention, not GC scheduling luck.
    import gc

    tracemalloc = None
    if memory_checkpoints:
        import tracemalloc as _tm

        tracemalloc = _tm
        if not tracemalloc.is_tracing():
            tracemalloc.start()
    report_samples: List[Tuple[int, int]] = []
    deadline = last_arrival + 600.0
    stride = max(1, submissions // max(20, memory_checkpoints))
    next_mark = stride
    while env.now < deadline and done["completed"] < submissions:
        env.run(until=min(env.now + 5.0, deadline))
        if done["completed"] >= next_mark:
            gc.collect()
            if tracemalloc is not None:
                report_samples.append(
                    (done["completed"], tracemalloc.get_traced_memory()[0])
                )
            if progress is not None:
                progress(done["completed"], submissions)
            next_mark += stride
    # Settle: let the lease sweeper expire anything a dead app stranded, so
    # stuck_allocations measures leaks, not in-flight cleanup.
    env.run(until=env.now + 2.0 * cluster.network.calibration.lease_ttl)
    finished_at = env.now
    cluster.assert_no_crashes()

    health = monitor.report()
    counters = svc.metrics
    jstats = (
        svc.journal.stats() if svc.journal is not None else {"enabled": False}
    )
    return SoakReport(
        seed=seed,
        machines=machines,
        private_machines=n_private,
        submissions=submissions,
        completed=done["completed"],
        failed=done["failed"],
        restarts=restarts,
        recoveries_from_journal=counters.counter(
            "recovery.from_journal"
        ).value,
        recovery_conflicts=counters.counter("recovery.conflicts").value,
        replayed_records=counters.counter("recovery.replayed_records").value,
        journal_compactions=int(jstats.get("compactions", 0)),
        journal_bytes=int(jstats.get("total_bytes", 0)),
        stuck_allocations=health.stuck_allocations,
        stuck_events=health.stuck_events,
        journal_lag_events=health.journal_lag_events,
        # Counters, not events_of(): the soak caps the event log, so the
        # per-kind buckets stop counting at the cap.
        revocations=int(counters.counter("broker.revokes").value),
        grants=int(counters.counter("broker.grants").value),
        finished_at=round(finished_at, 3),
        health=health.to_dict(),
        memory_samples=report_samples,
    )


if __name__ == "__main__":  # pragma: no cover - manual run
    print(run_soak().render())
