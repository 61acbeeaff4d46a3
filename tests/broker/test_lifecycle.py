"""One allocation lifecycle, owned by :class:`~repro.broker.records.Allocation`.

Each transition sets the allocation's fields and writes its own journal op
(the state × transition table of DESIGN.md §11, "Allocation lifecycle");
no other module of ``src/repro`` assigns a lifecycle field; and two known
gaps are pinned at the transition where their fix lands, as strict xfails.
"""

import ast
import pathlib

import pytest

from repro.broker.records import Allocation, AllocationState, PendingRequest
from repro.broker.state import BrokerState
from repro.cluster import Cluster, ClusterSpec

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
OWNER = SRC / "broker" / "records.py"

#: Fields only the lifecycle's own methods assign.
LIFECYCLE_FIELDS = frozenset(
    {"lease_expires_at", "reclaiming_since", "claimed_by", "loaned_to", "recovered"}
)


class Ops:
    """A journal stand-in: the ops and lease notes a transition writes."""

    def __init__(self):
        self.ops = []

    def record(self, op):
        self.ops.append(dict(op))

    def note_lease(self, host, expires_at):
        self.ops.append({"op": "leases", "leases": {host: expires_at}})


def _state():
    state = BrokerState()
    for host in ("n00", "n01"):
        state.add_machine(host)
    return state


def _granted(state, journal=None, expires=30.0):
    job = state.register_job("u", "n00", "", ["x"])
    record = state.machines["n01"]
    return record, Allocation.grant(record, job.jobid, True, 1.0, expires, journal)


def test_each_transition_writes_its_one_op():
    state, ops = _state(), Ops()
    record, allocation = _granted(state, ops)
    claim = PendingRequest(reqid=7, jobid=9, symbolic="anylinux", firm=True,
                           arrived_at=2.0)
    allocation.reclaim(3.0, claim, ops)
    assert claim.reserved_host == "n01"
    allocation.renew(40.0, ops)
    allocation.confirm_recovered(50.0, confirmed=True)  # writes nothing
    assert Allocation.adopt(record, allocation.jobid, 4.0, 45.0, ops) is allocation
    allocation.release(record, ops)
    assert record.allocation is None and claim.reserved_host is None
    loaned = Allocation.grant(record, 5, False, 6.0, 70.0, ops)
    loaned.loan(1, ops)
    assert ops.ops == [
        {"op": "alloc", "host": "n01", "jobid": allocation.jobid, "firm": True,
         "granted": 1.0, "expires": 30.0},
        {"op": "reclaim", "host": "n01", "since": 3.0, "claim": [9, 7]},
        {"op": "leases", "leases": {"n01": 40.0}},
        {"op": "leases", "leases": {"n01": 50.0}},  # the adoption refresh
        {"op": "release", "host": "n01"},
        {"op": "alloc", "host": "n01", "jobid": 5, "firm": False,
         "granted": 6.0, "expires": 70.0},
        {"op": "loan", "host": "n01", "jobid": 5, "to": 1},
    ]
    assert loaned.state is AllocationState.MIGRATING and loaned.loaned_to == 1


def test_a_document_round_trips_through_the_transitions():
    state = _state()
    record, allocation = _granted(state)
    claim = PendingRequest(reqid=2, jobid=3, symbolic="anylinux", firm=True,
                           arrived_at=0.5)
    allocation.reclaim(2.5, claim, None)
    doc = allocation.to_doc()
    assert list(doc) == ["host", "jobid", "firm", "astate", "granted",
                         "expires", "since", "claim", "loan"]
    other = _state().machines["n01"]
    rebuilt = Allocation.from_doc(other, doc, claim)
    assert other.allocation is rebuilt and rebuilt.to_doc() == doc


@pytest.mark.parametrize(
    "astate, attached, overdue",
    [
        ("active", True, True),
        ("migrating", True, True),
        ("reclaiming", False, True),
        ("reclaiming", True, False),
    ],
)
def test_deadline_past_the_lease(astate, attached, overdue):
    """Past its lease an allocation is overdue, except a reclaim whose
    victim can still send the release; before it, the lease is the
    deadline."""
    state = _state()
    record, allocation = _granted(state, expires=10.0)
    if astate == "reclaiming":
        allocation.reclaim(5.0, None, None)
    elif astate == "migrating":
        allocation.loan(1, None)
    state.jobs[allocation.jobid].conn = object() if attached else None
    assert allocation.deadline(9.0, state.jobs) == 10.0
    assert (allocation.deadline(20.0, state.jobs) is None) is overdue


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1(a): a reclaim whose victim is attached keeps its "
    "passed lease as its deadline, so the lease sweeper re-arms every 1 µs",
)
def test_an_attached_reclaim_past_its_lease_has_no_past_deadline():
    state = _state()
    record, allocation = _granted(state, expires=10.0)
    allocation.reclaim(5.0, None, None)
    state.jobs[allocation.jobid].conn = object()
    deadline = allocation.deadline(20.0, state.jobs)
    assert deadline is None or deadline > 20.0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP items 2(a)/2(b): Allocation.adopt grants firm=False, so a "
    "firm job's holdings read elastic after a blank restart",
)
def test_a_blank_restart_adopts_firm_holdings_as_firm(monkeypatch):
    adopted = []
    adopt = Allocation.adopt.__func__

    def spying(cls, record, jobid, now, expires, journal):
        allocation = adopt(cls, record, jobid, now, expires, journal)
        adopted.append(allocation)
        return allocation

    monkeypatch.setattr(Allocation, "adopt", classmethod(spying))
    with Cluster(ClusterSpec.uniform(3, seed=4)) as cluster:
        svc = cluster.start_broker()
        svc.wait_ready()
        for i in range(2):
            svc.submit("n00", ["rsh", "anylinux", "compute", "60"], uid=f"u{i}")
        cluster.env.run(until=cluster.now + 5.0)
        held = [r.allocation for r in svc.state.machines.values() if r.allocation]
        assert len(held) == 2 and all(a.firm for a in held)
        svc.crash_broker()
        cluster.env.run(until=cluster.now + 2.0)
        svc.restart_broker()
        svc.wait_ready()
        cluster.env.run(until=cluster.now + 3.0)
        assert {a.host for a in adopted} == {a.host for a in held}
        assert all(a.firm for a in adopted)


# -- the structural guard -----------------------------------------------------


def lifecycle_writes(source, filename="<src>"):
    """``(line, what)`` for every lifecycle-field assignment in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets, value = [node.target], node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("setattr", "__setattr__")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in LIFECYCLE_FIELDS
        ):
            found.append((node.lineno, node.args[1].value))
            continue
        else:
            continue
        flat = []
        for target in targets:
            flat.extend(target.elts if isinstance(target, ast.Tuple) else [target])
        for target in flat:
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr in LIFECYCLE_FIELDS:
                found.append((node.lineno, target.attr))
            elif target.attr == "state" and value is not None and any(
                isinstance(n, ast.Name) and n.id == "AllocationState"
                for n in ast.walk(value)
            ):
                found.append((node.lineno, "state"))
    return found


def test_the_guard_sees_every_form_of_write():
    source = "\n".join(
        [
            "a.lease_expires_at = 1.0",
            "a.recovered, b = True, 2",
            "a.claimed_by: object = None",
            "a.reclaiming_since += 1.0",
            "a.state = AllocationState.RECLAIMING",
            "setattr(a, 'loaned_to', 3)",
            "a.state = other",  # not an allocation state
            "x = a.lease_expires_at",  # a read
        ]
    )
    assert [line for line, _ in lifecycle_writes(source)] == [1, 2, 3, 4, 5, 6]


def test_only_records_assigns_a_lifecycle_field():
    writes = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == OWNER:
            continue
        found = lifecycle_writes(path.read_text(), str(path))
        if found:
            writes[str(path.relative_to(SRC))] = found
    assert writes == {}
    assert lifecycle_writes(OWNER.read_text(), str(OWNER))  # the guard bites
