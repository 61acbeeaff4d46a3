"""Property-based tests: policy decisions respect mechanism invariants.

Policies are pure functions over a BrokerState snapshot, so we can build
random states with hypothesis and check the safety rules the broker's
mechanisms rely on, for every policy:

* never grant a machine that is allocated, unreported, or whose owner is at
  the console;
* never grant a private machine to a non-adaptive job;
* never grant the requester's own home machine;
* never preempt a firm allocation, a reclaiming allocation, or the
  requester itself.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.records import AllocationState, PendingRequest
from repro.broker.state import BrokerState
from repro.policy import DefaultPolicy, FifoPolicy, RandomIdlePolicy
from repro.policy.base import DecisionKind


@st.composite
def broker_states(draw):
    state = BrokerState()
    n_machines = draw(st.integers(min_value=1, max_value=8))
    n_jobs = draw(st.integers(min_value=1, max_value=4))

    jobs = []
    for j in range(n_jobs):
        adaptive = draw(st.booleans())
        rsl = "+(adaptive)" if adaptive else ""
        job = state.register_job(
            user=f"u{j}", home_host="h0", rsl_text=rsl, argv=["cmd"]
        )
        jobs.append(job)

    for i in range(n_machines):
        record = state.add_machine(f"h{i}")
        if draw(st.booleans()):
            record.update(
                {
                    "platform": "i686linux",
                    "kind": draw(st.sampled_from(["public", "private"])),
                    "owner": "own",
                    "console_active": draw(st.booleans()),
                    "cpu_load": draw(st.integers(min_value=0, max_value=3)),
                    "n_processes": 0,
                    "time": 1.0,
                }
            )
            if draw(st.booleans()):
                holder = draw(st.sampled_from(jobs))
                allocation = state.allocate(
                    record.host,
                    holder.jobid,
                    firm=draw(st.booleans()),
                    now=1.0,
                )
                if draw(st.booleans()):
                    allocation.state = AllocationState.RECLAIMING

    requester = draw(st.sampled_from(jobs))
    request = PendingRequest(
        reqid=1,
        jobid=requester.jobid,
        symbolic=draw(st.sampled_from(["anyhost", "anylinux", "anysparc"])),
        firm=draw(st.booleans()),
        arrived_at=2.0,
    )
    state.pending.append(request)
    return state, request


_policies = st.sampled_from(
    [DefaultPolicy(), FifoPolicy(), RandomIdlePolicy(seed=3)]
)


@given(state_and_request=broker_states(), policy=_policies)
@settings(deadline=None, max_examples=300)
def test_policy_decisions_are_safe(state_and_request, policy):
    state, request = state_and_request
    job = state.job(request.jobid)
    decision = policy.decide(state, request)

    if decision.kind is DecisionKind.GRANT:
        record = state.machine(decision.host)
        assert record.reported
        assert record.allocation is None
        assert not record.console_active
        assert decision.host != job.home_host
        if record.kind == "private":
            assert job.adaptive
        # The symbolic constraint held.
        if request.symbolic == "anylinux":
            assert "linux" in record.platform
        if request.symbolic == "anysparc":
            assert "sparc" in record.platform
    elif decision.kind is DecisionKind.PREEMPT:
        record = state.machine(decision.host)
        allocation = record.allocation
        assert allocation is not None
        assert allocation.jobid == decision.victim_jobid
        assert allocation.jobid != request.jobid
        assert not allocation.firm
        assert allocation.state is AllocationState.ACTIVE
        assert not record.console_active
    else:
        assert decision.kind is DecisionKind.WAIT


@given(state_and_request=broker_states())
@settings(deadline=None, max_examples=200)
def test_default_policy_is_deterministic(state_and_request):
    state, request = state_and_request
    policy = DefaultPolicy()
    first = policy.decide(state, request)
    second = policy.decide(state, request)
    assert first == second


@given(state_and_request=broker_states())
@settings(deadline=None, max_examples=200)
def test_default_policy_prefers_idle_over_preemption(state_and_request):
    state, request = state_and_request
    decision = DefaultPolicy().decide(state, request)
    if decision.kind is DecisionKind.PREEMPT:
        # There must have been no grantable idle machine.
        assert state.idle_machines(request) == []
