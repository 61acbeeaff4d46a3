"""The indexed scheduler is an optimisation, never a policy change.

Every test here runs the same seeded scenario twice — ``indexed``, the
shipped dirty-driven scheduler over incremental indexes, and ``fullscan``,
the original scan-everything reference loop of ``tests/broker/reference.py``
installed in its place — and demands
byte-identical *decisions*: the broker event log (grants, revocations,
denials, releases, with timestamps) and the exported span trace may not
differ in a single byte.  Only the *cost* counters (machine records
scanned, scheduler passes) are allowed to diverge — that divergence is the
optimisation.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import Cluster, ClusterSpec, MachineSpec
from tests.broker import reference

MODES = ("indexed", "fullscan")


def _in_mode(monkeypatch, mode, run):
    """``run()`` with the shipped scheduler, or with the reference one."""
    if mode == "indexed":
        return run()
    with monkeypatch.context() as patch:
        reference.install(patch)
        return run()


def _timeline(svc) -> str:
    """The broker event log, canonically serialized."""
    return json.dumps(svc.events, sort_keys=True, default=str)


def _trace_digest(cluster) -> str:
    from repro.obs import TraceCollector

    collector = TraceCollector()
    collector.add_cluster(cluster, label="run")
    return hashlib.sha256(collector.jsonl().encode()).hexdigest()


def _churn_run(machines: int, seed: int, sim_seconds: float):
    """The scale benchmarks' churn cell: one greedy adaptive job plus a
    stream of firm sequential arrivals forcing preemptions."""
    from repro.workloads import install_churn

    cluster = Cluster(ClusterSpec.uniform(machines, seed=seed))
    svc = cluster.start_broker()
    svc.wait_ready()
    install_churn(cluster.system_bin)
    svc.submit("n00", ["greedy", str(machines - 1)], rsl="+(adaptive)")
    cluster.env.run(until=cluster.now + 5.0)

    def arrivals():
        while True:
            yield cluster.env.timeout(25.0)
            svc.submit("n00", ["rsh", "anylinux", "compute", "8"], uid="s")

    cluster.env.process(arrivals())
    cluster.env.run(until=cluster.now + sim_seconds)
    cluster.assert_no_crashes()
    return cluster, svc


@pytest.mark.parametrize("seed", (1, 2))
def test_churn_decision_timeline_identical(monkeypatch, seed):
    def run():
        return _churn_run(machines=12, seed=seed, sim_seconds=150.0)

    runs = {m: _in_mode(monkeypatch, m, run) for m in MODES}
    (c_idx, s_idx), (c_full, s_full) = runs["indexed"], runs["fullscan"]

    assert s_idx.events_of("grant"), "scenario must actually exercise grants"
    assert s_idx.events_of("revoke"), "scenario must actually exercise preemption"
    assert _timeline(s_idx) == _timeline(s_full)
    # Stronger than log equality: the whole simulations marched in lockstep.
    assert c_idx.env.heap_stats() == c_full.env.heap_stats()
    assert _trace_digest(c_idx) == _trace_digest(c_full)
    # The divergence that IS allowed (and is the point): the indexed
    # scheduler examined far fewer machine records to reach the same calls.
    assert s_idx.state.machines_scanned < s_full.state.machines_scanned


def test_owner_reclaim_and_denial_timeline_identical(monkeypatch):
    """Private-machine reclaim (console login mid-run) and an unsatisfiable
    request (denial path) decide identically under both schedulers."""
    spec = ClusterSpec(
        machines=[
            MachineSpec(name="n00"),
            MachineSpec(name="n01"),
            MachineSpec(name="p00", private_owner="ann"),
            MachineSpec(name="p01", private_owner="bob"),
        ]
    )
    results = {}

    def run():
        cluster = Cluster(spec)
        svc = cluster.start_broker()
        svc.wait_ready()
        from repro.workloads import install_churn

        install_churn(cluster.system_bin)
        svc.submit("n00", ["greedy", "4"], rsl="+(adaptive)", uid="alice")
        cluster.env.run(until=cluster.now + 8.0)
        # Ann sits down at her machine: owner-priority reclaim.
        cluster.machine("p00").console_active = True
        cluster.machine("p00").logged_in.add("ann")
        cluster.env.run(until=cluster.now + 8.0)
        # An unsatisfiable constraint: denied outright, in both modes.
        denied = svc.submit("n00", ["rsh", "anysolaris", "null"], uid="s")
        assert denied.wait() == 1
        cluster.env.run(until=cluster.now + 5.0)
        cluster.assert_no_crashes()
        assert svc.events_of("owner_reclaim")
        assert svc.events_of("denied")
        return _timeline(svc), _trace_digest(cluster)

    for mode in MODES:
        results[mode] = _in_mode(monkeypatch, mode, run)
    assert results["indexed"] == results["fullscan"]


def test_chaos_trace_identical(monkeypatch):
    """The full robustness capstone — machine crashes, partition, daemon
    kill, broker SIGKILL + restart — replays byte-identically across
    scheduler modes (the restarted incarnation keeps its mode)."""
    from repro.experiments.chaos import SCENARIOS, run_chaos
    from repro.obs import TraceCollector

    results = {}

    def run():
        collector = TraceCollector()
        table = run_chaos(seed=1, **SCENARIOS["restart"], trace=collector)
        digest = hashlib.sha256(collector.jsonl().encode()).hexdigest()
        assert table.meta["completed"] == table.meta["jobs"]
        return str(table), digest

    for mode in MODES:
        results[mode] = _in_mode(monkeypatch, mode, run)
    assert results["indexed"] == results["fullscan"]
