"""The invariant oracle (``repro.broker.invariants``) over the chaos scenarios.

Seeds 0-39 of each chaos scenario were run under the oracle, checked after
every event.  :data:`KNOWN_RED` is every scenario it finds red, with its
class (ROADMAP item 1); each runs here as a strict xfail, so fixing one
turns its xfail into an XPASS failure that asks for the entry to be
removed, and nothing already red can silently go green or vice versa.  The
green ones spot-check that the oracle holds where it should, and the unit
tests below show each property really is checked.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.broker.invariants import Oracle, checked
from repro.broker.records import AllocationState, PendingRequest
from repro.cluster import Cluster, ClusterSpec, MachineSpec
from repro.experiments import run_chaos
from repro.policy.default import DefaultPolicy
from tests.broker.conftest import install_greedy

VARIANTS = {
    "plain": {},
    "journal": {"journal": True, "broker_crashes": 1},
    "standby": {"standby": True},
    "shards": {"shards": 2},
}

CLASS_A = "A: a revoke races a redirection in flight"

#: The (scenario, seed) pairs of seeds 0-39 on which the oracle is red, by
#: their class in ROADMAP item 1.
KNOWN_RED = {
    CLASS_A: [
        ("plain", 4), ("plain", 7), ("plain", 27), ("plain", 37), ("journal", 7),
        ("journal", 27), ("journal", 31), ("standby", 3), ("standby", 4),
        ("standby", 7), ("standby", 22), ("standby", 27), ("standby", 35),
        ("standby", 37),
    ],
    "B: loan returned before vacate": [("shards", 28)],
    "C: lease adopted for a finished job": [("journal", 19), ("shards", 19)],
}


@pytest.mark.parametrize(
    "variant, seed",
    [
        pytest.param(
            variant,
            seed,
            marks=pytest.mark.xfail(
                strict=True, reason=f"ROADMAP item 1, class {klass}"
            ),
            id=f"{variant}-{seed}",
        )
        for klass, pairs in KNOWN_RED.items()
        for variant, seed in pairs
    ],
)
def test_known_red_scenario(checked, variant, seed):
    run_chaos(seed=seed, **VARIANTS[variant])
    violation = checked.settled()
    assert violation is None, str(violation)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_oracle_holds_on_a_green_seed(checked, variant):
    table = run_chaos(seed=1, **VARIANTS[variant])
    assert checked.settled() is None
    assert table.meta["completed"] == table.meta["jobs"]


@pytest.mark.xfail(strict=True, reason=f"ROADMAP item 1, class {CLASS_A}")
def test_mixed_workload_soak_never_runs_two_jobs_on_a_machine(checked):
    """``tests/broker/test_soak.py``'s fault-free mixed soak: a grant is
    revoked before its subapp starts, the app releases at once, and the
    machine is granted again while the first subapp is still on its way."""
    cluster = Cluster(ClusterSpec.uniform(8, seed=13))
    svc = cluster.start_broker()
    svc.wait_ready()
    install_greedy(cluster)
    svc.submit("n00", ["greedy", "6"], rsl="+(adaptive)", uid="a")
    svc.submit("n01", ["greedy", "6"], rsl="+(adaptive)", uid="b")
    rng = cluster.env.rng.stream("soak")
    cluster.env.run(until=cluster.now + 10.0)
    for i in range(20):
        dur = float(rng.uniform(2.0, 20.0))
        svc.submit("n02", ["rsh", "anylinux", "compute", f"{dur:.2f}"], uid=f"s{i}")
        cluster.env.run(until=cluster.now + float(rng.uniform(1.0, 8.0)))
    assert checked.first is None, str(checked.first)


def test_checked_run_is_the_unchecked_run():
    """The oracle only reads: a run checked after every event exports the
    same table and the same trace as the plain ``run()``."""
    from repro.obs import TraceCollector

    def once():
        collector = TraceCollector()
        table = run_chaos(seed=4, journal=True, broker_crashes=1, trace=collector)
        return str(table), hashlib.sha256(collector.jsonl().encode()).hexdigest()

    plain = once()
    with checked() as watch:
        assert once() == plain
    assert len(watch.oracles) == 1


def test_checked_restores_the_cluster_constructor_even_on_error():
    build = Cluster.__init__
    with pytest.raises(RuntimeError, match="scenario failed"), checked() as watch:
        inside = Cluster(ClusterSpec.uniform(2))
        raise RuntimeError("scenario failed")
    assert "run" in vars(inside.env) and len(watch.oracles) == 1
    assert Cluster.__init__ is build
    assert "run" not in vars(Cluster(ClusterSpec.uniform(2)).env)


# -- each property is really checked ----------------------------------------


def _broker(spec, **kwargs):
    cluster = Cluster(spec)
    svc = cluster.start_broker(**kwargs)
    svc.wait_ready()
    return cluster, svc


def test_two_jobs_on_one_machine_is_a_double_run():
    cluster, _svc = _broker(ClusterSpec.uniform(3))
    oracle = Oracle(cluster)
    procs = [cluster.run_command("n01", ["compute", "100"]) for _ in range(2)]
    cluster.env.run(until=cluster.now + 0.5)
    assert oracle.check() is None
    for jobid, proc in enumerate(procs, start=1):
        # The daemon's lease scan reads only the argv a subapp carries.
        proc.argv = ["subapp", "n00", "40000", "tok", str(jobid)]
    violation = oracle.check()
    assert violation.rule == "double_run"
    assert "n01" in violation.detail and violation.time == cluster.now


def test_violation_indexes_the_whole_event_log_of_a_bounded_cluster():
    cluster, svc = _broker(ClusterSpec.uniform(3, bounded=True))
    procs = [cluster.run_command("n01", ["compute", "100"]) for _ in range(2)]
    cluster.env.run(until=cluster.now + 0.5)
    logged = len(svc.events) + 400
    for i in range(400):  # the log keeps the newest 256 entries
        svc.log(event="filler", i=i)
    for jobid, proc in enumerate(procs, start=1):
        proc.argv = ["subapp", "n00", "40000", "tok", str(jobid)]
    assert Oracle(cluster).check().log_index == logged - 1 > len(svc.events)


def test_one_host_booked_on_two_shards_is_a_double_allocation():
    cluster = Cluster(ClusterSpec.uniform(4))
    federation = cluster.start_federation(shards=2)
    federation.wait_ready()
    first, second = federation.services
    job = second.state.register_job("u", "n02", "", ["x"])
    first.state.add_machine("n03")
    first.state.allocate("n03", 1, firm=True, now=cluster.now)
    second.state.allocate("n03", job.jobid, firm=True, now=cluster.now)
    violation = Oracle(cluster).check_books()
    assert violation.rule == "double_allocation"


def test_allocation_for_a_finished_job_breaks_the_books():
    cluster, svc = _broker(ClusterSpec.uniform(3))
    job = svc.state.register_job("u", "n00", "", ["x"])
    svc.state.allocate("n01", job.jobid, firm=True, now=cluster.now)
    assert Oracle(cluster).check_books() is None
    job.done = True
    assert Oracle(cluster).check_books().rule == "done_job"


def test_reservation_on_a_host_not_reclaimed_for_it_is_flagged():
    cluster, svc = _broker(ClusterSpec.uniform(3))
    state = svc.state
    victim = state.register_job("u", "n00", "", ["x"])
    claimer = state.register_job("v", "n00", "", ["y"])
    allocation = state.allocate("n01", victim.jobid, firm=False, now=cluster.now)
    request = PendingRequest(
        reqid=1, jobid=claimer.jobid, symbolic="anylinux", firm=True,
        arrived_at=cluster.now, reserved_host="n01",
    )
    state.pending.append(request)
    oracle = Oracle(cluster)
    assert oracle.check().rule == "reservation"  # n01 is still ACTIVE
    allocation.state = AllocationState.RECLAIMING
    allocation.claimed_by = request
    assert oracle.check() is None
    state.release("n01")  # freed without un-reserving the claim
    violation = oracle.check()
    assert violation.rule == "reservation" and "n01" in violation.detail


class _IgnoresOwners(DefaultPolicy):
    def reclaim_on_owner_return(self, state, machine):
        return False


def test_owner_at_the_console_past_the_bound_is_owner_ignored():
    spec = ClusterSpec(
        machines=[MachineSpec(name="n00"), MachineSpec(name="p00", private_owner="ann")]
    )
    cluster, svc = _broker(spec, policy=_IgnoresOwners())
    job = svc.state.register_job("u", "n00", "+(adaptive)", ["x"])
    svc.state.allocate("p00", job.jobid, firm=False, now=cluster.now)
    oracle = Oracle(cluster)
    cluster.machine("p00").console_active = True
    assert oracle.check() is None  # the clock starts now
    cluster.env.run(until=cluster.now + oracle.reclaim_bound + 1.0)
    assert oracle.check().rule == "owner_ignored"


def test_settled_run_has_no_overdue_lease_and_no_live_app():
    cluster, svc = _broker(ClusterSpec.uniform(3))
    job = svc.state.register_job("u", "n00", "", ["x"])
    svc.state.allocate(
        "n01", job.jobid, firm=True, now=0.0, lease_expires_at=cluster.now / 2
    )
    assert Oracle(cluster).check_settled().rule == "lease_overdue"
    svc.state.release("n01")
    svc.submit("n00", ["compute", "100"])
    cluster.env.run(until=cluster.now + 1.0)
    violation = Oracle(cluster).check_settled()
    assert violation.rule == "job_unfinished" and violation.trace_id is not None
