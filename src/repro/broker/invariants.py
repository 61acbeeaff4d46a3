"""The broker's safety properties, checked from outside the simulation.

One checker for the properties every scenario must keep, whatever failed
(the paper's owner-priority and revocation guarantees, PAPER.md §1).
After every event (:meth:`Oracle.check`):

* **no double run** — no machine runs live subapps of two jobs;
* **no double booking** — no host is allocated on two shards (a loan's
  donor and borrower halves are one allocation): the federation's half of
  the oracle, :func:`~repro.broker.federation.shard_books`;
* **job soundness** — every ACTIVE or RECLAIMING allocation and every
  pending request names a job its own shard holds, unfinished;
* **owner priority** — a private machine whose owner is at the console
  holds no ACTIVE allocation past the reclaim bound;
* **reservation** — a pending request reserved on a host is the claim of
  that host's reclaim in flight (a RECLAIMING allocation whose
  ``claimed_by`` is the request itself).

On the books (:meth:`Oracle.check_books`), whenever no fault is being
recovered from: job soundness for the donor-side MIGRATING loans too
(``shard_books`` again), whose job lives on the borrowing shard; a loan can
outlive its borrower's job until the loan's lease runs out.  Once a run has settled
(:meth:`Oracle.check_settled`): the books, no allocation past its lease,
and no ``app`` process left alive (every admitted job finished).

It looks at the machines, not only at the broker's books: the double-run
rule reads each process table through the daemon's own lease scan
(:func:`~repro.broker.daemon.leased_jobids`), so a plain broker — whose
daemons never audit a grant — is covered too.  An :class:`Oracle` only
reads: it schedules no event, sends no message and creates no instrument,
so a run :func:`checked` after every event is the unchecked run.  It never
feeds a run's own results (``double_grants``, ``stuck_allocations``,
``completed``); it is the safety verdict of the tests, the exact-fact gates
and ``python -m repro chaos``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional

from repro.broker.daemon import leased_jobids, subapp_jobid
from repro.broker.federation import shard_books
from repro.broker.records import CORE_STATES, AllocationState
from repro.cluster.builder import Cluster
from repro.obs.spans import TRACE_ENVIRON_KEY, parse_context
from repro.os.machine import MachineKind
from repro.sim.events import Event


@dataclass(frozen=True)
class Violation:
    """The first event after which a property failed."""

    #: ``double_run``, ``unknown_job``, ``done_job``, ``double_allocation``,
    #: ``owner_ignored``, ``reservation``, ``lease_overdue`` or
    #: ``job_unfinished``; a verdict on a whole run is ``crashed``,
    #: ``stalled`` or ``incomplete`` (``check_scenario``).
    rule: str
    detail: str
    time: float  # simulated time of the violating event
    #: The shard whose broker event log ``log_index`` indexes (its last
    #: entry at the violation, from the run's first), and the job's trace.
    shard: int
    log_index: int
    trace_id: Optional[int]

    def __str__(self) -> str:
        return (
            f"{self.rule} at t={self.time:.6f} (shard {self.shard} event "
            f"log #{self.log_index}, trace {self.trace_id}): {self.detail}"
        )


def _trace_of(proc) -> Optional[int]:
    context = parse_context(proc.environ.get(TRACE_ENVIRON_KEY))
    return context["trace_id"] if context is not None else None


class Stalled(Exception):
    """Raised out of a checked ``env.run`` past its kernel-event budget."""


class Oracle:
    """The safety properties over one cluster's brokers and machines."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        #: True once the settle-time properties were checked as the cluster
        #: closed (:func:`checked`): a closed cluster is not checked again.
        self.closed = False
        cal = cluster.calibration
        #: Owner at the console: the daemon reports within one interval, and
        #: a silent machine is declared dead (and reclaimed) by the deadline.
        self.reclaim_bound = cal.liveness_deadline + cal.daemon_report_interval
        #: The first violation seen, if any.
        self.first: Optional[Violation] = None
        self._probes = [SimpleNamespace(machine=m) for m in cluster.machines.values()]
        #: host -> instant its owner was first seen at the console.
        self._console_since: Dict[str, float] = {}

    def services(self) -> List:
        """Every broker service of the cluster, in shard order."""
        if self.cluster.federation is not None:
            return list(self.cluster.federation.services)
        if self.cluster.broker is not None:
            return [self.cluster.broker]
        return []

    def check(self) -> Optional[Violation]:
        """Check the properties that hold after every event."""
        services = self.services()
        return self._keep(
            self._double_run(services)
            or shard_books(self, services)
            or self._job_soundness(services)
            or self._owner_priority(services)
            or self._reservation(services)
        )

    def check_books(self) -> Optional[Violation]:
        """Check that no host is booked twice and every allocation, loans
        included, and every pending request belongs to a live job: true
        whenever no fault is being recovered from, and always once a run
        settles."""
        services = self.services()
        return self._keep(
            shard_books(self, services, loans=True)
            or self._job_soundness(services)
        )

    def check_settled(self) -> Optional[Violation]:
        """Check the properties that hold once a run has settled."""
        services = self.services()
        return self._keep(
            self._job_soundness(services)
            or shard_books(self, services, loans=True)
            or self._stranded_leases(services)
            or self._unfinished_jobs(services)
        )

    def _keep(self, found):
        if found is not None and self.first is None:
            self.first = found
        return found

    def _violation(self, services, rule, detail, host=None, jobid=None,
                   trace_id=None) -> Violation:
        shard = 0
        for index, service in enumerate(services):
            if host in service.managed_hosts:
                shard = index
                break
        logged = services[shard].logged if services else 0
        if trace_id is None and jobid is not None:
            trace_id = self._trace_of_job(jobid)
        return Violation(
            rule, detail, self.cluster.env.now, shard, logged - 1, trace_id
        )

    def _trace_of_job(self, jobid: int) -> Optional[int]:
        """The trace of the job's latest ``broker.job`` span (it hangs
        under the submission's root, so it names the whole job's tree)."""
        for span in reversed(self.cluster.network.tracer.spans_named("broker.job")):
            if span.attrs.get("jobid") == jobid:
                return span.trace_id
        return None

    # -- the properties ---------------------------------------------------

    def _double_run(self, services) -> Optional[Violation]:
        for probe in self._probes:
            jobids = leased_jobids(probe)
            if len(jobids) < 2:
                continue
            machine = probe.machine
            # The intruder is the job of the newest subapp on the machine.
            intruder = [
                jobid
                for jobid in map(subapp_jobid, machine.procs.values())
                if jobid is not None
            ][-1]
            return self._violation(
                services,
                "double_run",
                f"{machine.name} runs live subapps of jobs {jobids}",
                host=machine.name,
                jobid=intruder,
            )
        return None

    def _job_soundness(self, services) -> Optional[Violation]:
        """Every ACTIVE or RECLAIMING allocation and every pending request
        names a job its own shard holds, unfinished."""
        for index, service in enumerate(services):
            jobs = service.state.jobs
            named = [
                (record.host, record.allocation.jobid)
                for record in service.state.leased_records()
                if record.allocation.state in CORE_STATES
            ]
            named += [(None, request.jobid) for request in service.state.pending]
            for host, jobid in named:
                job = jobs.get(jobid)
                if job is None or job.done:
                    return self._violation(
                        services,
                        "unknown_job" if job is None else "done_job",
                        f"{host + ' allocated to' if host else 'request of'} "
                        f"{'unknown' if job is None else 'finished'} job "
                        f"{jobid} on shard {index}",
                        host=host or service.broker_host,
                        jobid=jobid,
                    )
        return None

    def _owner_priority(self, services) -> Optional[Violation]:
        now = self.cluster.env.now
        for machine in self.cluster.machines.values():
            if machine.kind is not MachineKind.PRIVATE:
                continue
            if not (machine.up and machine.console_active):
                self._console_since.pop(machine.name, None)
                continue
            since = self._console_since.setdefault(machine.name, now)
            if now - since <= self.reclaim_bound:
                continue
            for service in services:
                record = service.state.machines.get(machine.name)
                allocation = record and record.allocation
                if (
                    service.broker_alive
                    and allocation
                    and allocation.state is AllocationState.ACTIVE
                ):
                    return self._violation(
                        services,
                        "owner_ignored",
                        f"{machine.name}: owner at the console since "
                        f"{since:.6f}, still ACTIVE for job {allocation.jobid}",
                        host=machine.name,
                        jobid=allocation.jobid,
                    )
        return None

    def _reservation(self, services) -> Optional[Violation]:
        for service in services:
            for request in service.state.pending:
                host = request.reserved_host
                record = service.state.machines.get(host) if host else None
                allocation = record.allocation if record else None
                if host is None or (
                    allocation is not None
                    and allocation.state is AllocationState.RECLAIMING
                    and allocation.claimed_by is request
                ):
                    continue
                return self._violation(
                    services,
                    "reservation",
                    f"request {request.reqid} of job {request.jobid} reserved "
                    f"on {host}, which is not being reclaimed for it",
                    host=host,
                    jobid=request.jobid,
                )
        return None

    def _stranded_leases(self, services) -> Optional[Violation]:
        now = self.cluster.env.now
        for service in services:
            if not service.broker_alive:
                continue
            for record in service.state.machines.values():
                allocation = record.allocation
                if allocation is not None and allocation.lease_expires_at < now:
                    return self._violation(
                        services,
                        "lease_overdue",
                        f"{record.host} still allocated to job "
                        f"{allocation.jobid} ({allocation.state.value}), lease "
                        f"ran out at {allocation.lease_expires_at:.6f}",
                        host=record.host,
                        jobid=allocation.jobid,
                    )
        return None

    def _unfinished_jobs(self, services) -> Optional[Violation]:
        for machine in self.cluster.machines.values():
            for proc in machine.running("app"):
                return self._violation(
                    services,
                    "job_unfinished",
                    f"app {proc.argv[1:]!r} of {proc.uid} on "
                    f"{machine.name} never finished",
                    host=machine.name,
                    trace_id=_trace_of(proc),
                )
        return None


class Watch:
    """The oracles of every cluster built inside a :func:`checked` block."""

    def __init__(self) -> None:
        self.oracles: List[Oracle] = []

    @property
    def first(self) -> Optional[Violation]:
        """The earliest per-event violation of any watched cluster."""
        found = [o.first for o in self.oracles if o.first is not None]
        return min(found, key=lambda v: v.time, default=None)

    def settled(self) -> Optional[Violation]:
        """The first violation of the run, settle-time properties included:
        call once the scenario has settled."""
        for oracle in self.oracles:
            if not oracle.closed:
                oracle.check_settled()
        return self.first


def run_by_steps(env, until=None, check: Callable[[], object] = lambda: None):
    """``Environment.run`` as a ``step()`` loop calling ``check()`` after
    every event (``tests/sim/test_kernel_edges.py`` proves it ``run()``)."""
    if isinstance(until, Event):
        while not until.processed:
            env.step()
            check()
        if until.ok:
            return until.value
        raise until.value
    horizon = float("inf" if until is None else until)
    if horizon < env.now:
        raise ValueError(f"until={horizon!r} is in the past (now={env.now!r})")
    while (next_at := env.peek()) <= horizon and next_at != float("inf"):
        env.step()
        check()
    if until is not None:
        env._now = horizon  # run() leaves the clock on its horizon
    return None


@contextlib.contextmanager
def checked(budget: Optional[int] = None) -> Iterator[Watch]:
    """Check every cluster built inside the block after every event: its
    ``env.run`` becomes :func:`run_by_steps` over its own :class:`Oracle`,
    which stops checking at its first violation.  With ``budget``, the
    cluster's event past that many raises :class:`Stalled` instead.

    A cluster closed inside the block (``Cluster.close``) is checked for
    the settle-time properties first, while it is whole, and unhooked."""
    watch = Watch()
    build = Cluster.__init__

    def init(cluster, spec) -> None:
        build(cluster, spec)
        oracle = Oracle(cluster)
        watch.oracles.append(oracle)
        env = cluster.env
        events = itertools.count(1)

        def check():
            if budget is not None and next(events) > budget:
                raise Stalled(f"still running after {budget} kernel events")
            return oracle.first or oracle.check()

        def settle() -> None:
            oracle.check_settled()
            oracle.closed = True
            del env.run  # the partial holds the environment

        env.run = functools.partial(run_by_steps, env, check=check)
        cluster.close_hooks.append(settle)

    Cluster.__init__ = init
    try:
        yield watch
    finally:
        Cluster.__init__ = build
