"""Broker recovery: rebuilding a :class:`BrokerState` and booting over it.

The replay half of the write-ahead journal (DESIGN.md §14): the durable
projection of a state (:func:`snapshot_state`, :func:`state_fingerprint`),
and the ``apply_*`` functions that rebuild one from a snapshot document and
a run of journal ops.  Journal recovery (:meth:`~repro.broker.journal
.BrokerJournal.load_state`) replays through them, and so does anything that
applies a streamed WAL without owning a journal (DESIGN.md §16).

Then the one recovery pipeline, :func:`recover` — recover, re-stamp,
reconcile — behind every entry point: a journal restart and a blank
restart (rebuilt from daemon re-registration) in
:class:`~repro.broker.service.BrokerService`, and the incarnation a peer
subsystem boots (DESIGN.md §16).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.broker.records import Allocation, MachineRecord, PendingRequest
from repro.broker.state import BrokerState


def machine_op(record: MachineRecord) -> Dict[str, Any]:
    """The coalesced durable view of one machine record."""
    return {
        "op": "machine",
        "host": record.host,
        "platform": record.platform,
        "mkind": record.kind,
        "owner": record.owner,
        "console": record.console_active,
        "load": record.cpu_load,
        "nproc": record.n_processes,
        "reported": record.last_report >= 0.0,
        "seen": record.last_seen,
        "dead": record.dead,
        "leases": list(record.leases),
        "borrowed": record.borrowed_from,
    }


def snapshot_state(state: BrokerState) -> Dict[str, Any]:
    """Serialise the durable contract of ``state`` for a snapshot record."""
    return {
        "next_jobid": state._next_jobid,
        "machines": [machine_op(r) for r in state.machines.values()],
        "jobs": [
            {
                "jobid": job.jobid,
                "user": job.user,
                "home": job.home_host,
                "rsl": job.rsl.source,
                "argv": list(job.argv),
                "adaptive": job.adaptive,
                "done": job.done,
            }
            for job in state.jobs.values()
        ],
        "pending": [
            {
                "reqid": r.reqid,
                "jobid": r.jobid,
                "symbolic": r.symbolic,
                "firm": r.firm,
                "arrived": r.arrived_at,
                "reserved": r.reserved_host,
            }
            for r in state.pending
        ],
        "allocations": [
            record.allocation.to_doc()
            for record in state.machines.values()
            if record.allocation is not None
        ],
    }


def state_fingerprint(state: BrokerState) -> Dict[str, Any]:
    """Canonical projection of the durable contract, for equivalence tests.

    Two states with equal fingerprints agree on everything the journal
    promises to preserve: machines (view, liveness, lease inventory), jobs,
    allocations (including reclaim progress and claims), the pending queue
    in order, and the jobid counter.  Volatile details — connections, index
    internals, exact ``last_report`` instants — are deliberately outside
    the contract.  It is :func:`snapshot_state`'s document, keyed.
    """
    doc = snapshot_state(state)
    return {
        "next_jobid": doc["next_jobid"],
        "machines": {op["host"]: op for op in doc["machines"]},
        "jobs": {job.pop("jobid"): job for job in doc["jobs"]},
        "allocations": {entry["host"]: entry for entry in doc["allocations"]},
        "pending": doc["pending"],
    }


def restamp_recovered(state: BrokerState, now: float, lease_ttl: float) -> None:
    """The re-stamp half of :func:`recover`'s policy over a rebuilt state.

    Recovered machines keep their durable view but lose their *report* (no
    grants until the daemon proves liveness again) and get a fresh silence
    deadline; recovered leases are re-stamped at least one TTL out and marked
    ``recovered`` so re-registration can confirm them or flag a
    ``recovery.conflict``.
    """
    for record in state.machines.values():
        if record.last_report >= 0.0:
            record.last_report = -1.0
        if record.last_seen >= 0.0 and not record.dead:
            record.last_seen = now
        if record.allocation is not None:
            record.allocation.confirm_recovered(now + lease_ttl, confirmed=False)
    state.mark_all_pending_dirty()


@dataclass
class RecoveryInfo:
    """What one snapshot+replay recovery saw and produced."""

    base_generation: int = 0
    top_generation: int = 0
    snapshot_used: bool = False
    records: int = 0
    epoch: int = 0
    torn_tails: int = 0
    corrupt_records: int = 0
    snapshot_fallbacks: int = 0
    skipped_ops: int = 0
    wal_files: List[int] = field(default_factory=list)


# -- replay (module-level: shared by recovery and by anything that applies a
# streamed WAL without owning a journal) -------------------------------------


def _apply_machine_op(state: BrokerState, op: Dict[str, Any]) -> None:
    record = state.add_machine(op["host"])
    # The record hook ignores writes of an equal value, so unchanged fields
    # cost no refile, bump or dirty mark.
    record.platform = op["platform"]
    record.kind = op["mkind"]
    record.owner = op["owner"]
    record.console_active = bool(op["console"])
    record.cpu_load = int(op["load"])
    record.n_processes = int(op["nproc"])
    if op["reported"]:
        record.last_report = float(op["seen"])
    elif record.last_report >= 0.0:
        record.last_report = -1.0
    record.last_seen = float(op["seen"])
    record.dead = bool(op["dead"])
    record.leases = tuple(int(j) for j in op.get("leases", ()))
    record.borrowed_from = op.get("borrowed")


def _held(state: BrokerState, host: str) -> Optional[Allocation]:
    record = state.machines.get(host)
    return record.allocation if record is not None else None


def _claimant(state: BrokerState, claim: Any) -> Optional[PendingRequest]:
    """The request a replayed ``claim`` ([jobid, reqid] or None) names."""
    if not claim:
        return None
    jobid, reqid = claim
    for request in state.pending:
        if request.jobid == jobid and request.reqid == reqid:
            return request
    # The claimant is no longer pending (satisfied elsewhere, or its
    # job's requests were dropped) while the reclaim it demanded is
    # still in flight.  The live state keeps that dangling reference,
    # so replay carries the claim on a detached request rather than
    # silently forgetting who asked.
    return PendingRequest(
        reqid=reqid, jobid=jobid, symbolic="", firm=False, arrived_at=-1.0
    )


def apply_snapshot(
    state: BrokerState, doc: Dict[str, Any], info: RecoveryInfo
) -> None:
    """Rebuild ``state`` from one snapshot document (the replay baseline)."""
    state._next_jobid = max(state._next_jobid, int(doc.get("next_jobid", 1)))
    for op in doc.get("machines", ()):
        _apply_machine_op(state, op)
    for job in doc.get("jobs", ()):
        record = state.adopt_job(
            int(job["jobid"]),
            job["user"],
            job["home"],
            job.get("rsl", ""),
            list(job.get("argv", ())),
            adaptive_hint=bool(job.get("adaptive")),
        )
        if job.get("done"):
            record.done = True
    for entry in doc.get("pending", ()):
        request = PendingRequest(
            reqid=int(entry["reqid"]),
            jobid=int(entry["jobid"]),
            symbolic=entry["symbolic"],
            firm=bool(entry["firm"]),
            arrived_at=float(entry["arrived"]),
            reserved_host=entry.get("reserved"),
        )
        state.pending.append(request)
    for entry in doc.get("allocations", ()):
        Allocation.from_doc(
            state.add_machine(entry["host"]),
            entry,
            _claimant(state, entry.get("claim")),
        )


def apply_op(state: BrokerState, op: Dict[str, Any], info: RecoveryInfo) -> None:
    """Apply one replayed journal op to ``state``."""
    kind = op["op"]
    if kind == "epoch":
        info.epoch = max(info.epoch, int(op["epoch"]))
        state._next_jobid = max(state._next_jobid, int(op["first_jobid"]))
    elif kind == "machine":
        _apply_machine_op(state, op)
    elif kind == "job":
        state.adopt_job(
            int(op["jobid"]),
            op["user"],
            op["home"],
            op.get("rsl", ""),
            list(op.get("argv", ())),
            adaptive_hint=bool(op.get("adaptive")),
        )
    elif kind == "job_done":
        if op.get("prune"):
            state.jobs.pop(int(op["jobid"]), None)
        else:
            job = state.jobs.get(int(op["jobid"]))
            if job is not None:
                job.done = True
    elif kind == "alloc":
        Allocation.from_doc(state.add_machine(op["host"]), op)
    elif kind == "release":
        record = state.machines.get(op["host"])
        if record is not None and record.allocation is not None:
            record.allocation.release(record, None)
    elif kind == "reclaim":
        allocation = _held(state, op["host"])
        if allocation is not None:
            claim = _claimant(state, op.get("claim"))
            allocation.reclaim(float(op["since"]), claim, None)
    elif kind == "pend+":
        state.pending.append(
            PendingRequest(
                reqid=int(op["reqid"]),
                jobid=int(op["jobid"]),
                symbolic=op["symbolic"],
                firm=bool(op["firm"]),
                arrived_at=float(op["arrived"]),
            )
        )
    elif kind == "pend-":
        for request in state.pending:
            if request.reqid == op["reqid"] and request.jobid == op["jobid"]:
                state.pending.remove(request)
                break
    elif kind == "leases":
        for host, expires in op["leases"].items():
            allocation = _held(state, host)
            if allocation is not None:
                allocation.renew(float(expires), None)
    elif kind == "loan":
        # The peer subsystem's transition (DESIGN.md §17).
        allocation = _held(state, op["host"])
        if allocation is not None:
            allocation.loan(op.get("to"), None)
    elif kind == "forget":
        state.forget_machine(op["host"])
    # Unknown ops (a newer writer) are ignored: forward-compatible replay.


def apply_payloads(
    state: BrokerState, payloads: List[str], info: RecoveryInfo
) -> None:
    """Apply a run of framed payloads (streamed or replayed) to ``state``,
    with the same skip-on-inconsistency policy as WAL replay."""
    for payload in payloads:
        try:
            op = json.loads(payload)
        except ValueError:
            info.corrupt_records += 1
            break
        try:
            apply_op(state, op, info)
        except Exception:
            info.skipped_ops += 1
            continue
        info.records += 1


# -- the one recovery pipeline ----------------------------------------------


def recover(service, state: BrokerState, witnessed: int, floor: int = 1) -> None:
    """Install ``state`` as the next broker incarnation of ``service``.

    The one pipeline of every incarnation after the first: the entry
    point has *recovered* ``state``; here it is *re-stamped* — the epoch
    moves past the service's and ``witnessed``, the state takes the
    service's jobid space and its counter moves past ``floor``, the space's
    start and every known job, reports are cleared and leases re-stamped,
    the managed hosts re-added, each peer's :meth:`~repro.broker.leases
    .Peer.recovered` run — and installed with a fresh ``ready``, attached
    to the service's journal (compacted).  The entry point then logs itself and
    boots the broker, whose first work is to *reconcile*: daemon
    inventories confirm or drop recovered leases, resuming apps reclaim
    their holdings.
    """
    now = service.env.now
    service.epoch = max(service.epoch, witnessed) + 1
    space = service.state.jobid_space
    state.jobid_space = space
    state._next_jobid = max(
        state._next_jobid, floor, space.start, max(state.jobs, default=0) + 1
    )
    restamp_recovered(state, now, service.cluster.calibration.lease_ttl)
    service.state = state
    service.count_pending()  # the recovered queue, not the dead one's
    for host in service.managed_hosts:
        state.add_machine(host)
    for peer in service.peers:
        peer.recovered(state, now)
    service.ready = service.env.event()
    service.control = None
    service._daemon_down = {}
    if service.journal is not None:
        service.journal.attach(state, epoch=service.epoch, compact=True)
