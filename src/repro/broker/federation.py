"""Federated broker control plane (DESIGN.md §17).

A federation partitions the managed machines across ``N`` broker shards —
contiguous slices of the machine list — and runs one full
:class:`~repro.broker.service.BrokerService` per shard.  Each shard
schedules only its own machines with flat per-shard decision cost; a shard
that cannot satisfy a request *borrows* a machine from a sibling through
the lease-migration protocol of :class:`Borrowing` (``borrow_request`` /
``borrow_reply`` / ``borrow_release`` / ``borrow_recall``).

A broker's membership is one :class:`Shard`, the seam object
(:class:`~repro.broker.leases.Peer`) its service builds; each incarnation
attaches a :class:`Borrowing`, and the broker core reaches the protocol only
through the seam's methods.  The federation's half of the invariant oracle
(:func:`shard_books`) and its fault kind (:class:`ShardLinkPartition`) live
here too.

Submissions route by **locality**: a job submitted from a machine goes to
the shard that manages that machine (structurally guaranteed — each shard's
program directory shadows ``rsh`` only on its own slice, and apps get their
shard's broker address in the environment).  A borrowing shard starts its
sibling ring at ``crc32(symbolic) % shards``, so every shard forwards a
given symbolic name toward the same sibling first.

A federation has at least two shards; one broker is
:meth:`~repro.cluster.builder.Cluster.start_broker`, the unsharded
(``shard is None``) :class:`BrokerService`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.broker import protocol
from repro.broker.leases import Peer, serve_sessions
from repro.broker.records import AllocationState, JobRecord, PendingRequest
from repro.broker.state import ALL_JOBIDS
from repro.cluster import ports
from repro.cluster.network import EXPIRED
from repro.os.errors import ConnectionClosed, ConnectionRefused, NoSuchHost
from repro.rsl import parse_rsl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broker.invariants import Violation
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
    if shards < 2:
        raise ValueError(
            f"a federation has at least 2 shards, not {shards}: "
            f"boot one broker with start_broker()"
        )
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

    The harness-side twin of :class:`BrokerService` for runs of two or
    more shards: same submission/inspection surface, with routing by home
    host.  Every machine of the cluster is managed by one shard."""

    def __init__(self, cluster, shards: int, journal: bool = False) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.partitions = shard_partitions(list(cluster.machines), shards)
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

    def close(self) -> None:
        """Cut the back-pointers of this federation and of every shard
        service with their finished cluster (``Cluster.close``)."""
        self.cluster = None
        for service in self.services:
            service.close()

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


class Shard(Peer):
    """A broker's membership in a federation, behind the seam (DESIGN.md
    §11, §17): the no-op :class:`Peer` of a standalone broker without a
    ``shard`` (:class:`ShardConfig`).  It strides the jobid space and
    holds the shard's traffic counters."""

    key = "federation"

    def __init__(self, config: Optional[ShardConfig]) -> None:
        self.config = config
        self.fences = config is not None
        #: The jobids this broker issues: shard spaces are strided a
        #: million apart, so ids are globally unique without coordination
        #: (an inventory or borrowed lease names its shard implicitly);
        #: shard 0, like every standalone broker, starts at 1.
        self.jobid_space = ALL_JOBIDS
        if config is not None:
            first = 1 + config.index * 1_000_000
            self.jobid_space = range(first, first + 1_000_000)
        #: Cross-shard traffic counters (the ``stats`` federation block):
        #: per shard, where the registry is network-wide, and kept across
        #: broker restarts (they count the shard, not the process).
        self.counters: Dict[str, int] = dict.fromkeys(
            ("forwards", "cross_shard_grants", "loans_out", "loan_refusals",
             "recalls", "returns"),
            0,
        )

    def attach(self, core) -> Peer:
        """A :class:`Borrowing` for the incarnation."""
        if self.config is None:
            return self
        return Borrowing(core, self)

    def recovered(self, state, now: float) -> None:
        """Borrowed records never re-report here; one without an
        allocation lost its release-side forget to the crash (the
        pre-attach forget never journals, and the compacting snapshot
        after recovery excludes it)."""
        if self.config is None:
            return
        for host in sorted(
            host
            for host, rec in state.machines.items()
            if rec.borrowed_from is not None
        ):
            record = state.machines[host]
            if record.allocation is not None:
                record.touch(now)
            else:
                state.forget_machine(host)


class Borrowing(Peer):
    """Cross-shard lease borrowing (DESIGN.md §17), both sides of a loan:
    one incarnation's part of its :class:`Shard`.

    As *borrower* a shard that cannot place a request runs one borrow loop
    for it over the sibling ring and installs a lent machine as the grant;
    as *donor* it lends idle machines, keeps each loan leased and recalls it
    when the owner returns or the loan leaks."""

    key = Shard.key

    def __init__(self, core, shard: Shard) -> None:
        self.core = core
        self.proc = core.proc
        self.state = core.state
        self.cal = core.cal
        self.metrics = core.metrics
        self.service = core.service
        #: The service's membership, and its shard assignment.
        self.shard = shard
        self._shard = shard.config
        #: (jobid, reqid) pairs with a live borrow loop, so one queued
        #: request never runs two concurrent loops.
        self._borrowing = set()
        #: Loaned-out hosts whose borrower already got a recall notice.
        self._recalled = set()

    # -- the seam ----------------------------------------------------------

    def start(self) -> None:
        """Serve sibling shards' borrow requests on the federation port."""
        listener = self.proc.listen(ports.FEDERATION)
        self.proc.thread(
            serve_sessions(self.proc, listener, self._serve, "federation-session"),
            name="federation-acceptor",
        )

    def resumed(self, job) -> None:
        """Requeued requests lost their borrow loops with the old
        incarnation (or never had one): restart them."""
        for request in list(self.state.pending):
            if request.jobid == job.jobid:
                self.unplaced(job, request)

    def freed(self, host, allocation) -> None:
        """The federation half of ``free``: a borrowed record leaves the
        table and goes back to its donor; a loan forgets its recall."""
        donor = self.state.machines[host].borrowed_from
        if donor is not None:
            self.forget_loan(host, allocation.jobid, donor)
        elif allocation.state is AllocationState.MIGRATING:
            self._recalled.discard(host)

    # -- donor side ------------------------------------------------------------

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
        # The borrower's job, as a foreign (job, request) pair: no home host
        # to exclude, its RSL and adaptivity verbatim.  Only an idle machine
        # is ever lent: a donor never preempts its own jobs for a sibling.
        foreign = _foreign(symbolic, rsl_text, adaptive)
        record = (
            None if self.core.fence.demoted else self.state._best_idle_for(*foreign)
        )
        if record is None:
            self.shard.counters["loan_refusals"] += 1
            self.metrics.counter("federation.loan_refusals").inc()
            protocol.try_send(
                conn,
                protocol.borrow_reply(
                    ok=False,
                    satisfiable=self.state.satisfiable_somewhere(
                        symbolic, foreign[0]
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
        allocation.loan(borrower, self.state.journal)
        self.shard.counters["loans_out"] += 1
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

    def owner_returned(self, record) -> None:
        """Donor side: the owner is back at a loaned machine — recall the
        loan gracefully.  The donor does NOT release here: the loan ends
        through the borrower's release (or lease expiry as the backstop),
        so the machine is never grantable on two shards at once."""
        if record.host in self._recalled:
            return
        allocation = record.allocation
        self._recalled.add(record.host)
        self.shard.counters["recalls"] += 1
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

    def lost(self, host, allocation, outcome) -> None:
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
        return path.  With no live holder (an orphaned session) the
        borrowed record is dropped on the spot."""
        host = str(msg["host"])
        jobid = int(msg["jobid"])
        record = self.state.machines.get(host)
        if record is None or record.borrowed_from is None:
            return
        # A borrowed record always holds its loan: it is created granted,
        # and freeing it forgets it (``forget_loan``).
        allocation = record.allocation
        if (
            allocation.jobid == jobid
            and allocation.state is AllocationState.ACTIVE
            and (conn := self.state.jobs[jobid].conn) is not None
        ):
            self.service.log(
                event="loan_recalled",
                host=host,
                jobid=jobid,
                from_shard=record.borrowed_from,
            )
            protocol.try_send(conn, protocol.revoke(host))
            return
        self.core.free(host, outcome="loan_recalled")
        yield from self.core._schedule()

    def forget_loan(self, host, jobid, donor) -> None:
        """Borrower side: drop a released borrowed record and send the
        donor a best-effort return notice (a partitioned donor misses it
        and reclaims the loan through lease expiry instead)."""
        self.state.forget_machine(host)
        self.shard.counters["returns"] += 1
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

    def _notify(self, shard, message, failures="federation.notify_failures"):
        """Dial one sibling shard's federation port, send ``message`` and
        hold until the sibling answers or closes (its handler is done), so
        nothing is torn down in flight; the timer bounds a peer partitioned
        mid-session.  Returns the answer, None when there is none.  A
        one-way notice is best-effort: a partitioned or down sibling misses
        it (counted in ``failures``) and the loan self-heals through lease
        expiry instead."""
        host = self._shard.broker_hosts[shard]
        try:
            conn = yield self.proc.connect(host, ports.FEDERATION)
        except (ConnectionRefused, NoSuchHost):
            if failures is not None:
                self.metrics.counter(failures).inc()
            return None
        answer = None
        if protocol.try_send(conn, message):
            try:
                answer = yield conn.recv_or_deadline(self.cal.federation_rpc_timeout)
            except ConnectionClosed:
                pass
        conn.close()
        return None if answer is EXPIRED else answer

    def unplaced(self, job, request) -> bool:
        """Federated variant of the deny decision: before giving up on a
        request the local shard cannot place, try to borrow a machine from
        the sibling shards.

        Spawns at most one borrow loop per queued request.  The plain
        denial still exists — the loop issues it only on conclusive
        evidence that no shard could *ever* satisfy the request, so
        federation keeps the single-broker deny semantics stretched
        across all shards."""
        if request not in self.state.pending:
            return True  # already granted (or reclaimed-for) by the local pass
        key = (request.jobid, request.reqid)
        if key in self._borrowing:
            return True
        self._borrowing.add(key)
        self.proc.thread(
            self._borrow_for(job, request),
            name=f"borrow-{request.jobid}-{request.reqid}",
        )
        return True

    def _resolved(self, job, request) -> bool:
        """Whether a request no longer needs a borrowed machine."""
        return (
            request not in self.state.pending
            or request.reserved_host is not None
            or job.conn is None
        )

    def _borrow_for(self, job, request):
        """Borrow loop for one queued request.

        Runs while the request stays queued with no local prospect: each
        round walks the sibling ring (starting at the symbolic name's hash)
        until some shard lends a machine or all refuse.  Between
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
        self.shard.counters["forwards"] += 1
        self.metrics.counter("federation.forwards").inc()
        reply = yield from self._notify(
            shard,
            protocol.borrow_request(
                self._shard.index,
                request.jobid,
                request.symbolic,
                job.rsl.source,
                job.adaptive,
                request.firm,
                request.reqid,
            ),
            failures=None,
        )
        if reply is not None and reply.get("type") != "borrow_reply":
            return None
        return reply

    def _adopt_borrowed(self, job, request, reply) -> bool:
        """Install a sibling's loan as the grant for ``request``.

        The borrowed machine joins this shard's table fully formed —
        created, flagged ``borrowed_from``, granted and touched with no
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
        record = self.state.add_machine(host)
        record.borrowed_from = int(reply.get("shard", -1))
        record.platform = reply.get("platform", "")
        record.kind = reply.get("kind", "public")
        # The borrowed grant: ``alloc`` (leased by the donor, so infinite
        # here), the touch (its daemon reports to the donor: the grant is
        # all it says here), ``pend-``, then the core's announce step.
        now = self.proc.env.now
        self.state.allocate(host, request.jobid, firm=request.firm, now=now)
        record.touch(now)
        self.state.pending.remove(request)
        core.announce_grant(
            request, host, now, count=self._count_grant,
            borrowed_from=record.borrowed_from,
        )
        return True

    def _count_grant(self) -> None:
        self.metrics.counter("federation.cross_shard_grants").inc()
        self.shard.counters["cross_shard_grants"] += 1

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
            **self.shard.counters,
        }


def _foreign(symbolic: str, rsl_text: str, adaptive: bool):
    """A sibling's request as a transient (job, request) pair, registered
    in no state's jobs or pending queue."""
    job = JobRecord(
        jobid=-1, user="federation", home_host="",
        rsl=parse_rsl(rsl_text or ""), argv=[], adaptive=bool(adaptive),
    )
    return job, PendingRequest(
        reqid=-1, jobid=-1, symbolic=symbolic, firm=False, arrived_at=0.0
    )


# -- the federation's half of the invariant oracle -----------------------------


def shard_books(oracle, services, loans: bool = False) -> Optional["Violation"]:
    """The federation's half of the oracle (:mod:`repro.broker.invariants`):
    no host is booked on two shards — a loan's donor and borrower halves
    are one booking — and, with ``loans``, every donor-side MIGRATING loan
    names a job some shard holds, unfinished (a loan's job lives on the
    borrower; federated jobids are unique)."""
    holders: Dict[str, list] = {}
    for index, service in enumerate(services):
        for record in service.state.machines.values():
            if record.allocation is not None:
                holders.setdefault(record.host, []).append(
                    (index, record.allocation, record.borrowed_from)
                )
    for host, held in holders.items():
        if len(held) == 1 or _is_loan_pair(held):
            continue
        return oracle._violation(
            services,
            "double_allocation",
            f"{host} allocated on shards "
            f"{[(index, a.jobid, a.state.value) for index, a, _ in held]}",
            host=host,
            jobid=held[-1][1].jobid,
        )
    if not loans:
        return None
    everywhere = {}
    for service in services:
        everywhere.update(service.state.jobs)
    for index, service in enumerate(services):
        for record in service.state.leased_records():
            allocation = record.allocation
            if allocation.state is not AllocationState.MIGRATING:
                continue
            job = everywhere.get(allocation.jobid)
            if job is None or job.done:
                return oracle._violation(
                    services,
                    "unknown_job" if job is None else "done_job",
                    f"{record.host} allocated to "
                    f"{'unknown' if job is None else 'finished'} job "
                    f"{allocation.jobid} on shard {index}",
                    host=record.host,
                    jobid=allocation.jobid,
                )
    return None


def _is_loan_pair(held) -> bool:
    """Whether two holders of one host are the halves of one loan: the
    donor's MIGRATING allocation and the borrower's borrowed record."""
    if len(held) != 2 or held[0][1].jobid != held[1][1].jobid:
        return False
    (a, first, a_from), (b, second, b_from) = held
    return any(
        loan.state is AllocationState.MIGRATING
        and loan.loaned_to == borrower
        and borrowed_from == donor
        for donor, loan, borrower, borrowed_from in (
            (a, first, b, b_from),
            (b, second, a, a_from),
        )
    )


# -- the federation's fault kind (``repro.faults`` exports it) ---------------


@dataclass(frozen=True)
class ShardLinkPartition:
    """Cut just the link between two federated shards' brokers for
    ``duration`` seconds.

    Every machine stays reachable from its own shard — only the
    borrow/loan control traffic between ``shards[0]`` and ``shards[1]``
    goes dark.  Borrow RPCs across the cut fail fast or time out (the
    borrower walks on around the ring), loan-return notices are lost (the
    donor reclaims via lease expiry), and no machine may ever end up
    grantable on both sides.  No-op without a multi-shard federation."""

    at: float
    duration: float = 12.0
    shards: Tuple[int, int] = (0, 1)

    kind = "shard_link_partition"

    def inject(self, injector) -> None:
        """The injector arm: block the two brokers' link and sever what
        crosses it."""
        federation = injector.cluster.federation
        if federation is None:
            return
        a, b = self.shards
        host_a = federation.broker_host_of(a % federation.shards)
        host_b = federation.broker_host_of(b % federation.shards)
        if host_a != host_b:
            # Cut only the broker↔broker link: every machine keeps its own
            # shard's daemons and apps; just the borrow/loan control
            # traffic between these two shards goes dark.
            injector.faults.add_link_block(host_a, host_b, self.duration)
            injector.network.sever(injector.faults.partitioned)
