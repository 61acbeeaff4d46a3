"""Federated broker control plane (DESIGN.md §17).

A federation partitions the managed machines across ``N`` broker shards —
contiguous slices of the machine list — and runs one full
:class:`~repro.broker.service.BrokerService` per shard.  Each shard
schedules only its own machines with flat per-shard decision cost; a shard
that cannot satisfy a request *borrows* a machine from a sibling through
the lease-migration protocol of :class:`Borrowing` (``borrow_request`` /
``borrow_reply`` / ``borrow_release`` / ``borrow_recall``), the component a
multi-shard broker is built with.

Submissions route by **locality**: a job submitted from a machine goes to
the shard that manages that machine (structurally guaranteed — each shard's
program directory shadows ``rsh`` only on its own slice, and apps get their
shard's broker address in the environment).  Symbolic machine names carry a
**hash hint** (``crc32(name) % shards``, computed by rsh' when
``RB_FED_SHARDS`` is set) that seeds the borrow ring, so every shard
forwards a given name toward the same sibling first.

A one-shard federation is the degenerate case the identity property test
pins: a broker is built with :class:`Borrowing` only when
``shard.count > 1``, so its timeline, traces and state fingerprints are
byte-identical to a standalone :class:`BrokerService` on the same seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.broker import protocol
from repro.broker.records import AllocationState
from repro.cluster import ports
from repro.cluster.network import EXPIRED
from repro.os.errors import ConnectionClosed, ConnectionRefused, NoSuchHost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broker.service import BrokerService, JobHandle


@dataclass(frozen=True)
class ShardConfig:
    """One broker's membership card in a federation.

    Immutable and shared by value: every shard's config lists the same
    ``broker_hosts`` (indexed by shard number), so any shard can dial any
    sibling's federation port without a lookup service."""

    #: This shard's index in ``[0, count)``.
    index: int
    #: Total number of shards in the federation.
    count: int
    #: Broker host of every shard, indexed by shard number.
    broker_hosts: Tuple[str, ...] = field(default=())


def shard_partitions(hosts: Sequence[str], shards: int) -> List[List[str]]:
    """Split ``hosts`` into ``shards`` contiguous slices: host ``i`` of
    ``count`` goes to shard ``i * shards // count``."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, not {shards}")
    if shards > len(hosts):
        raise ValueError(
            f"cannot split {len(hosts)} machines into {shards} shards"
        )
    parts: List[List[str]] = [[] for _ in range(shards)]
    count = len(hosts)
    for i, host in enumerate(hosts):
        parts[i * shards // count].append(host)
    return parts


class FederationService:
    """Boot and drive a federation of broker shards on one cluster.

    The harness-side twin of :class:`BrokerService` for multi-shard runs:
    same submission/inspection surface, with routing by home host.  Tests
    and experiments that drive a single service keep working — a
    federation of one shard *is* a single service (``self.services[0]``)
    with nothing federated switched on."""

    def __init__(
        self,
        cluster,
        shards: int,
        policy_factory: Optional[Callable[[], Any]] = None,
        managed_hosts: Optional[Sequence[str]] = None,
        journal: bool = False,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        hosts = list(
            managed_hosts if managed_hosts is not None else cluster.machines
        )
        self.partitions = shard_partitions(hosts, shards)
        broker_hosts = tuple(part[0] for part in self.partitions)
        #: Shard index for every managed host (locality routing).
        self._shard_of_host: Dict[str, int] = {}
        for index, part in enumerate(self.partitions):
            for host in part:
                self._shard_of_host[host] = index
        # Imported here: the service's broker program imports this module.
        from repro.broker.service import BrokerService

        #: The per-shard broker services, in shard order.
        self.services: List[BrokerService] = []
        for index, part in enumerate(self.partitions):
            config = ShardConfig(
                index=index, count=shards, broker_hosts=broker_hosts
            )
            self.services.append(
                BrokerService(
                    cluster,
                    policy=policy_factory() if policy_factory else None,
                    managed_hosts=part,
                    broker_host=part[0],
                    journal=journal,
                    shard=config,
                )
            )
        #: Fault injectors find the federation through the cluster handle
        #: (e.g. ``ShardLinkPartition`` resolves shard indexes to broker
        #: hosts here).
        cluster.federation = self

    @property
    def shards(self) -> int:
        """Number of shards in this federation."""
        return len(self.services)

    def shard_of(self, host: str) -> int:
        """The shard index managing ``host`` (KeyError if unmanaged)."""
        return self._shard_of_host[host]

    def service_for(self, host: str) -> BrokerService:
        """The shard service managing ``host``."""
        return self.services[self._shard_of_host[host]]

    def broker_host_of(self, shard: int) -> str:
        """The broker machine of shard ``shard``."""
        return self.services[shard].broker_host

    # -- lifecycle ---------------------------------------------------------

    def wait_ready(self) -> None:
        """Run the simulation until every shard's daemons have reported."""
        for service in self.services:
            service.wait_ready()

    # -- submission (locality routing) -------------------------------------

    def submit(
        self,
        host: str,
        argv: Sequence[str],
        rsl: str = "",
        uid: str = "user",
    ) -> JobHandle:
        """Submit ``argv`` from ``host`` via the shard that manages it."""
        return self.service_for(host).submit(host, argv, rsl=rsl, uid=uid)

    # -- inspection --------------------------------------------------------

    def events_of(self, event: str) -> List[Dict[str, Any]]:
        """All shards' entries of one event kind, merged in time order.

        Ties break by shard index so two same-seed runs always merge
        identically."""
        merged: List[Tuple[float, int, Dict[str, Any]]] = []
        for index, service in enumerate(self.services):
            for entry in service.events_of(event):
                merged.append((float(entry.get("time", 0.0)), index, entry))
        merged.sort(key=lambda item: (item[0], item[1]))
        return [entry for _, _, entry in merged]

    def federation_stats(self) -> List[Dict[str, Any]]:
        """Each live shard's ``stats()`` federation block, in shard order."""
        blocks = []
        for service in self.services:
            if service.control is not None:
                blocks.append(service.control.stats()["federation"])
        return blocks

    def total_jobs_done(self) -> int:
        """Finished jobs across every shard (retained-jobs mode only)."""
        return sum(
            1
            for service in self.services
            for job in service.state.jobs.values()
            if job.done
        )


class Borrowing:
    """Cross-shard lease borrowing (DESIGN.md §17), both sides of a loan.

    As *borrower* a shard that cannot place a request runs one borrow loop
    for it over the sibling ring and installs a lent machine as the grant;
    as *donor* it lends idle machines, keeps each loan leased and recalls it
    when the owner returns or the loan leaks.  The broker core reaches it
    through its ``federation`` hook, which is None on a one-shard broker."""

    def __init__(self, core) -> None:
        self.core = core
        self.proc = core.proc
        self.state = core.state
        self.cal = core.cal
        self.metrics = core.metrics
        self.service = core.service
        #: This broker's shard assignment.
        self._shard = core.service.shard
        #: (jobid, reqid) pairs with a live borrow loop, so one queued
        #: request never runs two concurrent loops.
        self._borrowing = set()
        #: Loaned-out hosts whose borrower already got a recall notice.
        self._recalled = set()

    # -- donor side ------------------------------------------------------------

    def acceptor(self, listener):
        """Accept sibling shards' sessions on the federation port."""
        while True:
            try:
                conn = yield listener.accept()
            except ConnectionClosed:
                return
            self.proc.thread(self._serve(conn), name="federation-session")

    def _serve(self, conn):
        """Serve one sibling session: a borrow request (replied to on the
        same connection) or a one-way loan-lifecycle notice."""
        try:
            msg = yield conn.recv()
        except ConnectionClosed:
            conn.close()
            return
        kind = msg.get("type")
        if kind == "borrow_request":
            yield from self._serve_borrow(conn, msg)
        elif kind == "borrow_release":
            yield from self._serve_borrow_release(msg)
        elif kind == "borrow_recall":
            yield from self._serve_borrow_recall(msg)
        conn.close()

    def _serve_borrow(self, conn, msg):
        """Donor side of a loan: place a sibling's request on one of this
        shard's idle machines, if any fits.

        A successful pick is allocated *before* the reply leaves — state
        ``MIGRATING``, the borrower's jobid, one ordinary lease TTL — and
        the grant is installed on the hosting daemon under this
        incarnation's epoch: the same fencing discipline as a local grant,
        so the daemon's double-grant audit covers loans too.  The lease
        then renews from the daemon's inventory once the borrower's subapp
        lands, and expires (reclaiming the loan) if it never does; the
        borrower is NOT trusted to renew, so a dead borrower can never pin
        a donor machine for longer than one TTL."""
        yield self.proc.sleep(self.cal.broker_decision)
        borrower = int(msg["shard"])
        jobid = int(msg["jobid"])
        symbolic = msg["symbolic"]
        rsl_text = msg.get("rsl", "")
        adaptive = bool(msg.get("adaptive"))
        record = (
            None
            if self.core.fence.demoted
            else self.state.best_idle_for_loan(symbolic, rsl_text, adaptive)
        )
        if record is None:
            self.service.federation_counters["loan_refusals"] += 1
            self.metrics.counter("federation.loan_refusals").inc()
            protocol.try_send(
                conn,
                protocol.borrow_reply(
                    ok=False,
                    satisfiable=self.state.loan_satisfiable(
                        symbolic, rsl_text, adaptive
                    ),
                    reported=self.state.all_reported(
                        self.service.managed_hosts
                    ),
                    shard=self._shard.index,
                ),
            )
            return
        now = self.proc.env.now
        allocation = self.state.allocate(
            record.host,
            jobid,
            firm=bool(msg.get("firm")),
            now=now,
            lease_expires_at=now + self.cal.lease_ttl,
        )
        allocation.state = AllocationState.MIGRATING
        allocation.loaned_to = borrower
        journal = self.state.journal
        if journal is not None:
            journal.record(
                {
                    "op": "loan",
                    "host": record.host,
                    "jobid": jobid,
                    "to": borrower,
                }
            )
        self.service.federation_counters["loans_out"] += 1
        self.metrics.counter("federation.loans_out").inc()
        self.service.log(
            event="loan_out", host=record.host, jobid=jobid, to_shard=borrower
        )
        self.core.leases.install(record.host, jobid, int(msg.get("reqid", -1)))
        protocol.try_send(
            conn,
            protocol.borrow_reply(
                ok=True,
                host=record.host,
                platform=record.platform,
                kind=record.kind,
                shard=self._shard.index,
            ),
        )

    def _serve_borrow_release(self, msg):
        """Donor side: the borrower returned a loan — free the machine.

        Stale-safe: the notice names the loan's jobid, so one that raced
        with lease expiry (the machine possibly re-loaned or granted again
        since) matches nothing and is ignored."""
        host = str(msg["host"])
        jobid = int(msg["jobid"])
        record = self.state.machines.get(host)
        allocation = record.allocation if record is not None else None
        if (
            allocation is None
            or allocation.state is not AllocationState.MIGRATING
            or allocation.jobid != jobid
        ):
            return
        self.core.free(host)
        self.metrics.counter("federation.loan_returns").inc()
        self.service.log(
            event="loan_release",
            host=host,
            jobid=jobid,
            from_shard=int(msg.get("shard", -1)),
        )
        yield from self.core._schedule()

    def recall(self, record) -> None:
        """Donor side: the owner is back at a loaned machine — recall the
        loan gracefully.  The donor does NOT release here: the loan ends
        through the borrower's release (or lease expiry as the backstop),
        so the machine is never grantable on two shards at once."""
        if record.host in self._recalled:
            return
        allocation = record.allocation
        self._recalled.add(record.host)
        self.service.federation_counters["recalls"] += 1
        self.metrics.counter("federation.recalls").inc()
        self.service.log(
            event="loan_recall",
            host=record.host,
            jobid=allocation.jobid,
            to_shard=allocation.loaned_to,
        )
        self.proc.thread(
            self._notify(
                allocation.loaned_to,
                protocol.borrow_recall(record.host, allocation.jobid),
            ),
            name=f"loan-recall-{record.host}",
        )

    def end_loan(self, host, allocation, outcome) -> None:
        """Donor side: a loan ended without the borrower's release (lease
        leak or machine death): free the machine and send the borrower a
        best-effort recall so it drops its side too."""
        borrower = allocation.loaned_to
        jobid = allocation.jobid
        self.core.free(host, outcome=outcome)
        self.metrics.counter("federation.loans_reclaimed").inc()
        self.service.log(
            event="loan_reclaimed",
            host=host,
            jobid=jobid,
            to_shard=borrower,
            outcome=outcome,
        )
        if borrower is not None:
            self.proc.thread(
                self._notify(borrower, protocol.borrow_recall(host, jobid)),
                name=f"loan-recall-{host}",
            )

    # -- borrower side -----------------------------------------------------------

    def _serve_borrow_recall(self, msg):
        """Borrower side: the donor recalled a loan (owner at the console,
        or the donor reclaimed a leak).

        With a live holder the machine is revoked from its app exactly
        like an owner reclaim; the release then travels the ordinary
        return path.  With no live holder (orphaned or pruned job) the
        borrowed record is dropped on the spot."""
        host = str(msg["host"])
        jobid = int(msg["jobid"])
        record = self.state.machines.get(host)
        if record is None or record.borrowed_from is None:
            return
        allocation = record.allocation
        job = self.state.jobs.get(jobid)
        if (
            allocation is not None
            and allocation.jobid == jobid
            and allocation.state is AllocationState.ACTIVE
            and job is not None
            and not job.done
            and job.conn is not None
        ):
            self.service.log(
                event="loan_recalled",
                host=host,
                jobid=jobid,
                from_shard=record.borrowed_from,
            )
            protocol.try_send(job.conn, protocol.revoke(host))
            return
        if allocation is not None:
            self.core.free(host, outcome="loan_recalled")
        else:
            self.state.forget_machine(host)
        yield from self.core._schedule()

    def forget_loan(self, host, jobid, donor) -> None:
        """Borrower side: drop a released borrowed record and send the
        donor a best-effort return notice (a partitioned donor misses it
        and reclaims the loan through lease expiry instead)."""
        self.state.forget_machine(host)
        self.service.federation_counters["returns"] += 1
        self.metrics.counter("federation.returns").inc()
        self.service.log(
            event="loan_returned", host=host, jobid=jobid, to_shard=donor
        )
        self.proc.thread(
            self._notify(
                donor, protocol.borrow_release(self._shard.index, host, jobid)
            ),
            name=f"borrow-return-{host}",
        )

    def _notify(self, shard, message):
        """Dial one sibling shard's federation port and deliver a one-way
        notice, best-effort: a partitioned or down sibling misses it and
        the loan self-heals through lease expiry instead."""
        host = self._shard.broker_hosts[shard]
        try:
            conn = yield self.proc.connect(host, ports.FEDERATION)
        except (ConnectionRefused, NoSuchHost):
            self.metrics.counter("federation.notify_failures").inc()
            return
        if protocol.try_send(conn, message):
            # Hold until the sibling closes (its handler is done) so the
            # notice is never torn down in flight; the timer bounds a peer
            # partitioned mid-session.
            try:
                yield conn.recv_or_deadline(self.cal.federation_rpc_timeout)
            except ConnectionClosed:
                pass
        conn.close()

    def maybe_borrow(self, job, request, hint=None) -> None:
        """Federated variant of the deny decision: before giving up on a
        request the local shard cannot place, try to borrow a machine from
        the sibling shards.

        Spawns at most one borrow loop per queued request.  The plain
        denial still exists — the loop issues it only on conclusive
        evidence that no shard could *ever* satisfy the request, so
        federation keeps the single-broker deny semantics stretched
        across all shards."""
        if request not in self.state.pending:
            return  # already granted (or reclaimed-for) by the local pass
        if hint is not None:
            request.shard_hint = int(hint) % self._shard.count
        key = (request.jobid, request.reqid)
        if key in self._borrowing:
            return
        self._borrowing.add(key)
        self.proc.thread(
            self._borrow_for(job, request),
            name=f"borrow-{request.jobid}-{request.reqid}",
        )

    def _resolved(self, job, request) -> bool:
        """Whether a request no longer needs a borrowed machine."""
        return (
            request not in self.state.pending
            or request.reserved_host is not None
            or job.done
            or job.conn is None
        )

    def _borrow_for(self, job, request):
        """Borrow loop for one queued request.

        Runs while the request stays queued with no local prospect: each
        round walks the sibling ring (starting at the request's locality
        hint) until some shard lends a machine or all refuse.  Between
        rounds it sleeps ``federation_borrow_retry`` — roughly one daemon
        report interval, so newly idle donor machines are visible by the
        next ask."""
        key = (request.jobid, request.reqid)
        interval = self.cal.federation_borrow_retry
        core = self.core
        try:
            while True:
                if self._resolved(job, request) or core.fence.demoted:
                    return
                if self.state.all_reported(self.service.managed_hosts):
                    if self.state.best_idle(request) is None:
                        verdict = yield from self._borrow_round(job, request)
                        if verdict == "granted":
                            return
                        if verdict == "hopeless" and not core._satisfiable(
                            job, request.symbolic
                        ):
                            # Conclusively unsatisfiable on every shard.
                            core._deny_request(job, request)
                            return
                yield self.proc.sleep(interval)
        finally:
            self._borrowing.discard(key)

    def _borrow_round(self, job, request):
        """One pass over the sibling ring.

        Returns ``granted`` when a loan was adopted (or the request
        resolved some other way mid-round), ``hopeless`` when every
        sibling conclusively refused — answered, fully reported, and the
        request unsatisfiable there even in the best case — and ``retry``
        otherwise (somebody was unreachable, silent, or merely busy)."""
        count = self._shard.count
        start = request.shard_hint
        if start is None or not 0 <= start < count:
            start = zlib.crc32(request.symbolic.encode()) % count
        hopeless = True
        for step in range(count):
            shard = (start + step) % count
            if shard == self._shard.index:
                continue
            if self._resolved(job, request):
                return "granted"  # resolved while this round was running
            reply = yield from self._borrow_rpc(shard, job, request)
            if reply is None:
                hopeless = False  # unreachable sibling: evidence incomplete
                continue
            if reply.get("ok"):
                if self._adopt_borrowed(job, request, reply):
                    return "granted"
                # The request resolved while the RPC was in flight: hand
                # the loaned machine straight back to its donor.
                self.proc.thread(
                    self._notify(
                        shard,
                        protocol.borrow_release(
                            self._shard.index,
                            str(reply["host"]),
                            request.jobid,
                        ),
                    ),
                    name=f"borrow-return-{reply['host']}",
                )
                return "granted"
            if not reply.get("reported") or reply.get("satisfiable"):
                hopeless = False
        return "hopeless" if hopeless else "retry"

    def _borrow_rpc(self, shard, job, request):
        """One borrow request/reply exchange with a sibling; None when the
        sibling is unreachable, silent past the RPC deadline, or answered
        garbage."""
        host = self._shard.broker_hosts[shard]
        self.service.federation_counters["forwards"] += 1
        self.metrics.counter("federation.forwards").inc()
        try:
            conn = yield self.proc.connect(host, ports.FEDERATION)
        except (ConnectionRefused, NoSuchHost):
            return None
        reply = None
        if protocol.try_send(
            conn,
            protocol.borrow_request(
                self._shard.index,
                request.jobid,
                request.symbolic,
                job.rsl.source,
                job.adaptive,
                request.firm,
                request.reqid,
            ),
        ):
            try:
                answer = yield conn.recv_or_deadline(
                    self.cal.federation_rpc_timeout
                )
                if answer is not EXPIRED:
                    reply = answer
            except ConnectionClosed:
                pass
        conn.close()
        if reply is not None and reply.get("type") != "borrow_reply":
            return None
        return reply

    def _adopt_borrowed(self, job, request, reply) -> bool:
        """Install a sibling's loan as the grant for ``request``.

        The borrowed machine joins this shard's table fully formed —
        created, flagged ``borrowed_from``, allocated and touched with no
        intervening yield — so no scheduler pass can ever see it idle and
        it never joins the general candidate pool.  Its lease is infinite
        on the borrower: renewal flows to the *donor* (the machine's
        daemon reports there), which bounds the loan and recalls it if
        this shard dies.  No ``grant_install`` is sent from here either —
        the donor already installed the grant under its own epoch, the
        one the machine's daemon actually witnesses."""
        core = self.core
        if self._resolved(job, request) or core.fence.demoted:
            return False
        host = str(reply["host"])
        if host in self.state.machines:
            return False  # never shadow a machine this shard already knows
        now = self.proc.env.now
        record = self.state.add_machine(host)
        record.borrowed_from = int(reply.get("shard", -1))
        record.platform = reply.get("platform", "")
        record.kind = reply.get("kind", "public")
        self.state.allocate(host, request.jobid, firm=request.firm, now=now)
        record.touch(now)
        self.state.pending.remove(request)
        core.reqids.pop((request.jobid, request.reqid), None)
        waited = now - request.arrived_at
        span = core.request_spans.pop((request.jobid, request.reqid), None)
        if span is not None:
            span.end(
                outcome="granted",
                host=host,
                waited=waited,
                borrowed_from=record.borrowed_from,
            )
        core._grants.inc()
        self.metrics.counter("federation.cross_shard_grants").inc()
        self.service.federation_counters["cross_shard_grants"] += 1
        core._grant_wait.observe(waited)
        core._pending_requests.dec()
        self.service.log(
            event="grant",
            jobid=request.jobid,
            reqid=request.reqid,
            host=host,
            waited=waited,
            borrowed_from=record.borrowed_from,
        )
        protocol.try_send(
            job.conn,
            protocol.attach_trace(
                protocol.machine_grant(request.reqid, host),
                span.context if span is not None else None,
            ),
        )
        return True

    def stats(self, leased, metric_value) -> dict:
        """The ``stats`` RPC's federation block."""
        borrowed = 0
        loaned = 0
        for record in leased:
            allocation = record.allocation
            if record.borrowed_from is not None:
                borrowed += 1
            elif (
                allocation is not None
                and allocation.state is AllocationState.MIGRATING
            ):
                loaned += 1
        return {
            "enabled": True,
            "shard": self._shard.index,
            "shards": self._shard.count,
            "owned_machines": len(self.state.machines) - borrowed,
            "borrowed_machines": borrowed,
            "loaned_machines": loaned,
            "fencing_rejections": metric_value("fencing.rejections"),
            "double_grants": metric_value("fencing.double_grants"),
            **self.service.federation_counters,
        }
