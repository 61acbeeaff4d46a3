"""Host-side harness that overlays ResourceBroker onto a simulated cluster.

:class:`BrokerService` is not part of the paper's system — it plays the role
of the *system administrator*: it installs the broker's program directory
ahead of the system directory on each managed machine (the PATH interception),
boots the broker process as an unprivileged user, and gives tests and
experiments a typed submission API plus full visibility into broker state and
an event log.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.broker.app import app_main, subapp_main
from repro.broker.core import make_broker_main
from repro.broker.daemon import rbdaemon_main
from repro.broker.journal import BrokerJournal
from repro.broker.recovery import recover
from repro.broker.replica import make_standby_main
from repro.broker.rshprime import rshprime_main
from repro.broker.tools import rbctl_main, rbstat_main, rbtop_main, rbtrace_main
from repro.broker.records import JobRecord
from repro.broker.state import BrokerState
from repro.obs.timeseries import SpanPhaseFolder
from repro.os.process import OSProcess
from repro.os.programs import ProgramDirectory
from repro.os.signals import SIGKILL
from repro.policy.default import DefaultPolicy

#: The unprivileged account the resource-management layer runs as.  Nothing
#: grants it special rights: the simulated OS denies it signals to other
#: users' processes exactly as real Unix would.
BROKER_UID = "rbroker"

#: Entries a bounded cluster's broker event log keeps (the newest), in
#: total and per event kind.
BOUNDED_EVENT_LOG = 256


class BrokerUnavailable(RuntimeError):
    """The broker process is down (or mid-restart): the requested control
    operation cannot be delivered.  Raised instead of silently dropping the
    message; call :meth:`BrokerService.restart_broker` to recover."""


class BrokerLost(RuntimeError):
    """A :meth:`JobHandle.wait` deadline expired with the broker dead and
    the job still running: the job is now unmanaged and may never terminate
    on its own (adaptive masters run until told to stop)."""


@dataclass
class JobHandle:
    """A submitted job as seen by the submitting harness."""

    service: "BrokerService"
    proc: OSProcess  # the app process
    argv: List[str]
    rsl: str
    uid: str
    #: Root span of this submission's trace tree (``job.submit``).
    span: Any = None

    @property
    def terminated(self):
        return self.proc.terminated

    @property
    def exit_code(self) -> Optional[int]:
        return self.proc.exit_code

    @property
    def status(self) -> str:
        """``"done"``, ``"broker_lost"`` (broker dead, job still running —
        the job is unmanaged) or ``"running"``."""
        if self.proc.terminated.triggered:
            return "done"
        if not self.service.broker_alive:
            return "broker_lost"
        return "running"

    def wait(self, deadline: Optional[float] = None) -> Optional[int]:
        """Run the simulation until this job's app exits.

        With ``deadline`` (simulated seconds from now), stop waiting then:
        if the broker died while the job still runs, raise
        :class:`BrokerLost` instead of blocking forever on a job nobody
        manages any more; if the job is merely slow, return None.
        """
        env = self.service.cluster.env
        if deadline is None:
            env.run(until=self.proc.terminated)
            return self.proc.exit_code
        limit = env.now + deadline
        while not self.proc.terminated.triggered and env.now < limit:
            env.run(until=min(env.now + 1.0, limit))
        if self.proc.terminated.triggered:
            return self.proc.exit_code
        if not self.service.broker_alive:
            raise BrokerLost(
                f"broker died with job {self.argv!r} still running "
                f"(waited {deadline}s); restart_broker() to re-manage it"
            )
        return None

    def job_record(self) -> Optional[JobRecord]:
        """The broker's record for this job (matched on user/host/argv)."""
        for job in self.service.state.jobs.values():
            if (
                job.user == self.uid
                and job.home_host == self.proc.machine.name
                and job.argv == self.argv
            ):
                return job
        return None


class BrokerService:
    """Install, boot and drive ResourceBroker on a cluster."""

    def __init__(
        self,
        cluster,
        policy=None,
        managed_hosts: Optional[Sequence[str]] = None,
        broker_host: Optional[str] = None,
        journal: bool = False,
        standby_host: Optional[str] = None,
        shard: Optional[Any] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.policy = policy if policy is not None else DefaultPolicy()
        #: Federation membership (:class:`~repro.broker.federation.ShardConfig`)
        #: or ``None`` for a standalone broker.  A one-shard federation keeps
        #: ``shard.count == 1`` and every federation behaviour gated off, so
        #: it is byte-identical to a standalone broker.
        self.shard = shard
        self.managed_hosts: List[str] = list(
            managed_hosts if managed_hosts is not None else cluster.machines
        )
        self.broker_host = broker_host or self.managed_hosts[0]
        #: First jobid this broker may issue.  Federated shards stride their
        #: jobid spaces a million apart so ids are globally unique without
        #: coordination (a daemon inventory or borrowed lease names its shard
        #: implicitly); shard 0 — and every standalone broker — starts at 1.
        self._first_jobid = 1
        if shard is not None and shard.count > 1:
            self._first_jobid = 1 + shard.index * 1_000_000
        self.state = BrokerState(first_jobid=self._first_jobid)
        #: A bounded cluster (``ClusterSpec.bounded``) caps the event log
        #: and drops finished jobs from the state tables
        #: (:func:`core._finish_job`), so a service left running does not
        #: grow with its trace.  Otherwise the log is an unbounded list and
        #: finished jobs stay, as ``rbstat`` and the experiments expect.
        bounded = cluster.spec.bounded
        self.event_log_cap = BOUNDED_EVENT_LOG if bounded else None
        self.events: Any = deque(maxlen=BOUNDED_EVENT_LOG) if bounded else []
        self._events_by_kind: Dict[str, Any] = {}
        self.logged = 0  # entries ever logged, however few a bounded log keeps
        self.retain_done_jobs = not bounded
        #: Run-wide observability, shared with everything on this network.
        self.tracer = cluster.network.tracer
        self.metrics = cluster.network.metrics
        #: Online per-phase allocation-latency digests, folded from span-end
        #: events as they happen (no post-hoc tree walks) — what the live
        #: ``stats`` RPC reports.
        self.phase_stats = SpanPhaseFolder(self.tracer)
        self.ready = self.env.event()
        #: The live broker incarnation (``core._BrokerControl``) once the
        #: broker program boots.
        self.control = None
        self._daemon_down: Dict[str, Any] = {}
        #: Broker incarnation number; bumped by :meth:`restart_broker` and
        #: :meth:`promote_standby`.  Apps resume their sessions by
        #: (jobid, epoch).
        self.epoch = 1
        #: Warm standby (DESIGN.md §16): with ``standby_host`` set, the
        #: primary ships flushed WAL frames to an ``rbstandby`` process
        #: there, grants and lease renewals carry epoch stamps (fencing),
        #: and the standby promotes itself on primary death.
        self.standby_host = standby_host
        #: True when a warm standby replicates this broker's WAL (gates the
        #: ship listener, heartbeats and the promotion machinery).
        self.replicated = standby_host is not None
        #: True when grants and renewals carry epoch stamps that daemons
        #: witness-check: under replication (a promoted standby must fence
        #: the ex-primary) and in any multi-shard federation (a cross-shard
        #: grant installs on the donor's daemon under the donor's epoch, so
        #: a stale shard incarnation is fenced exactly as a stale primary).
        self.fencing = self.replicated or (
            shard is not None and shard.count > 1
        )
        #: Cross-shard traffic counters (the ``stats`` federation block).
        #: Service-level, not metrics-registry, because the registry is
        #: shared network-wide and these are per-shard; surviving broker
        #: restarts is intentional (they count the shard, not the process).
        self.federation_counters: Dict[str, int] = {
            "forwards": 0,
            "cross_shard_grants": 0,
            "loans_out": 0,
            "loan_refusals": 0,
            "recalls": 0,
            "returns": 0,
        }
        #: The well-known broker addresses, in dial order — stable across a
        #: promotion so every daemon and app can alternate between them.
        self.broker_addresses: List[str] = [self.broker_host]
        if standby_host is not None:
            if standby_host == self.broker_host:
                raise ValueError("standby_host must differ from broker_host")
            if standby_host not in cluster.machines:
                raise ValueError(f"unknown standby_host {standby_host!r}")
            self.broker_addresses.append(standby_host)
        #: Ex-primary host a freshly promoted incarnation must fence (via
        #: ``fence_notice`` on the ship port); None until a promotion.
        self.fence_target: Optional[str] = None

        # The broker's program directory, shadowing the system's rsh.
        self.rb_bin = ProgramDirectory("rb")
        self.rb_bin.register("rsh", rshprime_main)
        self.rb_bin.register("app", app_main)
        self.rb_bin.register("subapp", subapp_main)
        self.rb_bin.register("rbdaemon", rbdaemon_main)
        self.rb_bin.register("rbroker", make_broker_main(self))
        self.rb_bin.register("rbstandby", make_standby_main(self))
        self.rb_bin.register("rbstat", rbstat_main)
        self.rb_bin.register("rbctl", rbctl_main)
        self.rb_bin.register("rbtrace", rbtrace_main)
        self.rb_bin.register("rbtop", rbtop_main)

        for host in self.managed_hosts:
            machine = cluster.machines[host]
            machine.path = [self.rb_bin, cluster.system_bin]
            self.state.add_machine(host)
        broker_machine = cluster.machines[self.broker_host]
        if self.rb_bin not in broker_machine.path:
            broker_machine.path = [self.rb_bin] + list(broker_machine.path)
        if self.standby_host is not None:
            standby_machine = cluster.machines[self.standby_host]
            if self.rb_bin not in standby_machine.path:
                standby_machine.path = [self.rb_bin] + list(
                    standby_machine.path
                )

        #: Durable write-ahead journal (DESIGN.md §14), off by default so
        #: the seed's in-memory-only behaviour is untouched.
        self.journal: Optional[BrokerJournal] = None
        if journal:
            self.journal = self._new_journal()
            self.journal.attach(self.state, epoch=self.epoch)
            if self.replicated:
                self.journal.enable_shipping(stream=self.epoch)
        if self.replicated and self.journal is None:
            raise ValueError(
                "a warm standby replicates the WAL: standby_host requires "
                "journal=True"
            )

        self._boot()

    # -- logging -----------------------------------------------------------

    def log(self, **entry: Any) -> None:
        """Append a timestamped entry to the broker event log."""
        entry.setdefault("time", self.env.now)
        self.events.append(entry)
        self.logged += 1
        kind = entry.get("event")
        if kind is not None:
            # Index at append time so events_of() is O(matches), not a full
            # scan — experiment harnesses poll it in tight wait loops.
            bucket = self._events_by_kind.get(kind)
            if bucket is None:
                bucket = (
                    []
                    if self.event_log_cap is None
                    else deque(maxlen=self.event_log_cap)
                )
                self._events_by_kind[kind] = bucket
            bucket.append(entry)

    def events_of(self, event: str) -> List[Dict[str, Any]]:
        """All logged entries of one event kind, in order."""
        return list(self._events_by_kind.get(event, ()))

    # -- lifecycle ----------------------------------------------------------

    def wait_ready(self) -> None:
        """Run the simulation until every managed daemon has reported."""
        if not self.ready.processed:
            self.env.run(until=self.ready)

    @property
    def broker_alive(self) -> bool:
        """Whether the current broker incarnation's process is alive."""
        return self.broker_proc.is_alive

    def crash_broker(self) -> None:
        """Kill the broker process where it stands (SIGKILL, no cleanup).

        Daemons and apps notice only through connection EOF; jobs keep
        running unmanaged until :meth:`restart_broker` brings a new
        incarnation up.  A no-op if the broker is already down.
        """
        if not self.broker_proc.is_alive:
            return
        self.metrics.counter("broker.crashes").inc()
        self.log(event="broker_crash", epoch=self.epoch)
        self.broker_proc.signal(SIGKILL)
        if self.journal is not None:
            # Anything still in the journal's cache died with the process;
            # only what reached the simulated disk survives.
            self.journal.discard_unflushed()

    def _boot(self) -> OSProcess:
        """Start the current incarnation's broker process on
        ``broker_host`` (the first boot, and every recovery's last step)."""
        self.broker_proc = OSProcess(
            self.cluster.machines[self.broker_host],
            ["rbroker"],
            uid=BROKER_UID,
            environ={"HOME": f"/home/{BROKER_UID}"},
        )
        return self.broker_proc

    def _new_journal(self) -> BrokerJournal:
        """A journal on the broker machine's filesystem."""
        return BrokerJournal(
            fs=self.cluster.machines[self.broker_host].fs,
            clock=lambda: self.env.now,
            metrics=self.metrics,
            compact_bytes=self.cluster.network.calibration.journal_compact_bytes,
        )

    def restart_broker(self) -> OSProcess:
        """Boot a fresh broker incarnation, recovering state if possible.

        With a journal, the new incarnation (``epoch + 1``) recovers jobs,
        leases, the pending queue and the epoch directly from disk
        (snapshot + WAL replay) in near-zero time; daemon re-registration
        then *reconciles* the recovered picture — disagreements resolve
        toward the live inventory and count ``recovery.conflicts``.
        Without one (or when nothing on disk is readable), it starts from a
        blank :class:`BrokerState` — only the managed-host list survives —
        and reconstructs everything from daemon re-registration inventories
        and app session resumptions (the recovery window of
        :mod:`repro.broker.leases`).  Either way the jobid counter starts
        past every id the dead incarnation could have issued, so resumed
        jobs keep their ids without colliding with fresh submissions.  Both
        are entry points of :func:`~repro.broker.recovery.recover`.
        """
        if self.broker_proc.is_alive:
            self.broker_proc.signal(SIGKILL)
            if self.journal is not None:
                self.journal.discard_unflushed()
        restarted_at = self.env.now
        floor = max(max(self.state.jobs, default=0) + 1, self._first_jobid)
        loaded = None
        if self.journal is not None:
            self.journal.discard_unflushed()
            loaded = self.journal.load_state()
        state, info = loaded if loaded is not None else (BrokerState(), None)
        recover(
            self, state, witnessed=info.epoch if info is not None else 0, floor=floor
        )
        if info is not None:
            self.metrics.counter("recovery.from_journal").inc()
            self.metrics.counter("recovery.replayed_records").inc(info.records)
            if info.torn_tails:
                self.metrics.counter("recovery.torn_tails").inc(info.torn_tails)
            if info.corrupt_records:
                self.metrics.counter("recovery.corrupt_records").inc(
                    info.corrupt_records
                )
            if info.snapshot_fallbacks:
                self.metrics.counter("recovery.snapshot_fallbacks").inc(
                    info.snapshot_fallbacks
                )
            # State is whole the instant the new process boots: recovery
            # latency is zero on the simulated clock (re-registration only
            # cross-checks it).
            self.metrics.gauge("recovery.latency_seconds").set(0.0)
            self.log(
                event="recovery",
                source="journal",
                epoch=self.epoch,
                records=info.records,
                snapshot_generation=info.base_generation,
                snapshot_used=info.snapshot_used,
                torn_tails=info.torn_tails,
                corrupt_records=info.corrupt_records,
                snapshot_fallbacks=info.snapshot_fallbacks,
                jobs=len(state.jobs),
                leases=len(state.leased_records()),
                pending=len(state.pending),
            )
        else:
            self.metrics.counter("recovery.from_reregistration").inc()
            self.log(event="recovery", source="reregistration", epoch=self.epoch)
            # Blind until the periphery re-reports: recovery latency is the
            # restart-to-ready gap.
            self.ready.add_callback(
                lambda ev: self.metrics.gauge("recovery.latency_seconds").set(
                    self.env.now - restarted_at
                )
            )
        if self.journal is not None and self.replicated:
            # A restarted incarnation is a new ship stream; a standby holding
            # the old one re-baselines from a snapshot.
            self.journal.enable_shipping(stream=self.epoch)
        self.metrics.counter("broker.restarts").inc()
        self.log(event="broker_restart", epoch=self.epoch)
        return self._boot()

    def promote_standby(
        self,
        state: BrokerState,
        witnessed: int,
        applied_records: int = 0,
        acked_offset: int = 0,
    ) -> OSProcess:
        """Fail over to the warm standby (called by ``rbstandby`` when the
        primary goes silent past the promotion deadline, DESIGN.md §16).

        The shipped shadow ``state`` becomes the service's live state under
        a strictly higher epoch than any the standby witnessed, through the
        same recovery pipeline as a restart (leases re-stamped and marked
        recovered, reports cleared so nothing is granted until daemons
        re-prove liveness).  The fresh broker incarnation boots *on the
        standby machine* — the well-known secondary address every daemon
        and app alternates toward — with a fresh journal there, and fences
        the ex-primary by epoch: daemons reject its stale-stamped grants and
        renewals, and the promoted broker sends it a ``fence_notice`` for
        the case where no daemon is left to do the rejecting.
        """
        if self.standby_host is None:
            raise ValueError("promote_standby needs a configured standby")
        old_primary = self.broker_host
        self.broker_host = self.standby_host
        self.fence_target = old_primary
        self.journal = self._new_journal()
        recover(self, state, witnessed=witnessed, floor=self._first_jobid)
        self.metrics.counter("broker.promotions").inc()
        self.metrics.counter("recovery.from_standby").inc()
        self.metrics.gauge("recovery.latency_seconds").set(0.0)
        self.log(
            event="broker_promoted",
            epoch=self.epoch,
            host=self.broker_host,
            from_host=old_primary,
            witnessed=witnessed,
            applied_records=applied_records,
            acked_offset=acked_offset,
            jobs=len(state.jobs),
            leases=len(state.leased_records()),
            pending=len(state.pending),
        )
        return self._boot()

    def _app_environ(self) -> Dict[str, str]:
        """Broker-address environment for app processes."""
        environ = {"RB_BROKER_HOST": self.broker_host}
        alternates = [
            host for host in self.broker_addresses if host != self.broker_host
        ]
        if alternates:
            environ["RB_BROKER_STANDBY"] = alternates[0]
        if self.shard is not None and self.shard.count > 1:
            # rsh' hashes symbolic names to a shard index when this is set
            # (the federated routing hint); absent otherwise so standalone
            # and one-shard messages stay byte-identical.
            environ["RB_FED_SHARDS"] = str(self.shard.count)
        return environ

    def _require_broker(self, action: str) -> None:
        """Fail fast (not a silent dropped send) when the broker is down."""
        if not self.broker_proc.is_alive:
            raise BrokerUnavailable(
                f"cannot {action}: the broker process is down "
                f"(epoch {self.epoch}); call restart_broker() first"
            )

    def submit(
        self,
        host: str,
        argv: Sequence[str],
        rsl: str = "",
        uid: str = "user",
    ) -> JobHandle:
        """Submit ``argv`` from ``host`` through an app process.

        This is the user typing ``app <rsl> <command>`` at a shell prompt on
        ``host``.  The submission roots a new trace: every span the job's
        app, rsh' chain, broker session and module scripts produce hangs off
        the returned handle's ``span``.
        """
        span = self.tracer.start(
            "job.submit",
            host=host,
            actor="user",
            uid=uid,
            argv=list(argv),
            rsl=rsl,
        )
        app_argv = ["app", rsl, *argv]
        proc = self.cluster.run_command(
            host,
            app_argv,
            uid=uid,
            environ={**self._app_environ(), **span.environ()},
        )
        proc.terminated.add_callback(
            lambda ev: span.end(code=ev.value) if not span.finished else None
        )
        return JobHandle(
            service=self, proc=proc, argv=list(argv), rsl=rsl, uid=uid, span=span
        )

    def halt_job(self, jobid: int, host: Optional[str] = None) -> OSProcess:
        """Ask the broker to stop ``jobid`` (via ``rbctl halt``).

        Raises :class:`BrokerUnavailable` when the broker is down — the
        halt could never be delivered."""
        self._require_broker(f"halt job {jobid}")
        return self.cluster.run_command(
            host or self.broker_host,
            ["rbctl", "halt", str(jobid)],
            uid="operator",
            environ={"RB_BROKER_HOST": self.broker_host},
        )

    def run_rbstat(
        self,
        host: Optional[str] = None,
        uid: str = "user",
        stats: bool = False,
    ) -> OSProcess:
        """Run the ``rbstat`` status tool as ``uid`` on ``host``.

        ``stats=True`` runs ``rbstat --stats`` (the live telemetry view).
        Raises :class:`BrokerUnavailable` when the broker is down (the tool
        itself, run by hand, still fails fast and writes a clear error to
        ``~/.rbstat``)."""
        self._require_broker("query broker status")
        argv = ["rbstat", "--stats"] if stats else ["rbstat"]
        return self.cluster.run_command(
            host or self.broker_host,
            argv,
            uid=uid,
            environ={"RB_BROKER_HOST": self.broker_host},
        )

    def run_rbtop(
        self,
        host: Optional[str] = None,
        uid: str = "user",
        polls: int = 1,
        interval: float = 2.0,
    ) -> OSProcess:
        """Run the live ``rbtop`` poller against this broker.

        Raises :class:`BrokerUnavailable` when the broker is down."""
        self._require_broker("poll broker stats")
        return self.cluster.run_command(
            host or self.broker_host,
            ["rbtop", "--polls", str(polls), "--interval", str(interval)],
            uid=uid,
            environ={"RB_BROKER_HOST": self.broker_host},
        )

    # -- introspection -------------------------------------------------------

    def holdings(self) -> Dict[int, List[str]]:
        """jobid -> sorted list of allocated hosts."""
        result: Dict[int, List[str]] = {}
        for record in self.state.machines.values():
            if record.allocation is not None:
                result.setdefault(record.allocation.jobid, []).append(
                    record.host
                )
        return {jobid: sorted(hosts) for jobid, hosts in result.items()}

    def __repr__(self) -> str:
        return (
            f"<BrokerService policy={self.policy.name} "
            f"machines={len(self.managed_hosts)} "
            f"jobs={len(self.state.jobs)}>"
        )
