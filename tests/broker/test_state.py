"""Unit tests for the broker's bookkeeping (BrokerState)."""

import pytest

from repro.broker.records import AllocationState, PendingRequest
from repro.broker.state import BrokerState


@pytest.fixture
def state():
    s = BrokerState()
    for i in range(3):
        record = s.add_machine(f"h{i}")
        record.update(
            {
                "platform": "i686linux",
                "kind": "public",
                "owner": None,
                "console_active": False,
                "cpu_load": 0,
                "n_processes": 1,
                "time": 1.0,
            }
        )
    return s


def _request(state, jobid, symbolic="anylinux", firm=True, at=0.0, reqid=1):
    request = PendingRequest(
        reqid=reqid, jobid=jobid, symbolic=symbolic, firm=firm, arrived_at=at
    )
    state.pending.append(request)
    return request


def test_register_job_assigns_increasing_ids(state):
    a = state.register_job("u", "h9", "", ["x"])
    b = state.register_job("u", "h9", "", ["y"])
    assert b.jobid == a.jobid + 1


def test_adaptive_from_rsl_or_hint(state):
    assert state.register_job("u", "h9", "+(adaptive)", ["x"]).adaptive
    assert state.register_job("u", "h9", '+(module="pvm")', ["x"]).adaptive
    assert state.register_job("u", "h9", "", ["x"], adaptive_hint=True).adaptive
    assert not state.register_job("u", "h9", "", ["x"]).adaptive


def test_allocate_and_release(state):
    job = state.register_job("u", "h9", "", ["x"])
    allocation = state.allocate("h0", job.jobid, firm=True, now=5.0)
    assert allocation.state is AllocationState.ACTIVE
    assert state.holding_count(job.jobid) == 1
    assert state.machine("h0").allocated
    released = state.release("h0")
    assert released is allocation
    assert state.holding_count(job.jobid) == 0


def test_double_allocate_rejected(state):
    job = state.register_job("u", "h9", "", ["x"])
    state.allocate("h0", job.jobid, firm=True, now=0.0)
    with pytest.raises(RuntimeError):
        state.allocate("h0", job.jobid, firm=True, now=0.0)


def test_eligible_excludes_unreported(state):
    state.add_machine("fresh")  # no report yet
    job = state.register_job("u", "h9", "", ["x"])
    request = _request(state, job.jobid)
    hosts = [m.host for m in state.idle_machines(request)]
    assert "fresh" not in hosts
    assert set(hosts) == {"h0", "h1", "h2"}


def test_eligible_excludes_home_host(state):
    job = state.register_job("u", "h1", "", ["x"])
    request = _request(state, job.jobid)
    hosts = [m.host for m in state.idle_machines(request)]
    assert "h1" not in hosts


def test_eligible_respects_console_activity(state):
    state.machine("h0").console_active = True
    job = state.register_job("u", "h9", "", ["x"])
    request = _request(state, job.jobid)
    hosts = [m.host for m in state.idle_machines(request)]
    assert "h0" not in hosts


def test_eligible_private_only_for_adaptive(state):
    state.machine("h0").kind = "private"
    rigid = state.register_job("u", "h9", "", ["x"])
    adaptive = state.register_job("u", "h9", "+(adaptive)", ["x"])
    r1 = _request(state, rigid.jobid, reqid=1)
    r2 = _request(state, adaptive.jobid, reqid=2)
    assert "h0" not in [m.host for m in state.idle_machines(r1)]
    assert "h0" in [m.host for m in state.idle_machines(r2)]


def test_eligible_respects_rsl_machine_constraints(state):
    state.machine("h2").platform = "sparcsolaris"
    job = state.register_job("u", "h9", '+(arch="i686linux")', ["x"])
    request = _request(state, job.jobid, symbolic="anyhost")
    hosts = [m.host for m in state.idle_machines(request)]
    assert hosts and "h2" not in hosts


def test_idle_machines_public_first(state):
    state.machine("h0").kind = "private"
    job = state.register_job("u", "h9", "+(adaptive)", ["x"])
    request = _request(state, job.jobid)
    idle = state.idle_machines(request)
    assert [m.kind for m in idle] == ["public", "public", "private"]


def test_pending_sorted_firm_fifo_then_elastic_by_holdings(state):
    rich = state.register_job("u", "h9", "+(adaptive)", ["x"])
    poor = state.register_job("u", "h9", "+(adaptive)", ["y"])
    rigid = state.register_job("u", "h9", "", ["z"])
    state.allocate("h0", rich.jobid, firm=False, now=0.0)
    state.allocate("h1", rich.jobid, firm=False, now=0.0)

    e_rich = _request(state, rich.jobid, firm=False, at=1.0, reqid=1)
    e_poor = _request(state, poor.jobid, firm=False, at=2.0, reqid=2)
    f_late = _request(state, rigid.jobid, firm=True, at=3.0, reqid=3)

    order = state.pending_sorted()
    # Firm first despite arriving last; then poorest elastic job.
    assert order == [f_late, e_poor, e_rich]


def test_drop_job_requests(state):
    job = state.register_job("u", "h9", "", ["x"])
    other = state.register_job("u", "h9", "", ["y"])
    _request(state, job.jobid, reqid=1)
    _request(state, other.jobid, reqid=2)
    state.drop_job_requests(job.jobid)
    assert [r.jobid for r in state.pending] == [other.jobid]


def test_summary_shape(state):
    job = state.register_job("ann", "h9", "+(adaptive)", ["x"])
    state.allocate("h0", job.jobid, firm=False, now=0.0)
    summary = state.summary()
    assert summary["machines"]["h0"]["allocated_to"] == job.jobid
    assert summary["machines"]["h1"]["state"] == "free"
    assert summary["jobs"][job.jobid]["user"] == "ann"
    assert summary["jobs"][job.jobid]["holdings"] == 1
    assert summary["pending"] == 0
