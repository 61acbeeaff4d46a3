"""Property: a one-shard federation *is* the single broker.

DESIGN.md §17's degenerate-case contract: every federated behaviour —
the federation listener, borrow threads, hash hints, epoch fencing — is
gated on ``shard.count > 1``, so booting the same cluster through
``start_federation(shards=1)`` instead of ``start_broker()`` must change
*nothing*: byte-identical broker event logs, exported span traces and
final :func:`~repro.broker.recovery.state_fingerprint` documents, across
churn, owner-reclaim and fault-schedule (chaos) scenarios.  Any future
federation change observable at one shard fails here.
"""

import json

from repro.broker.recovery import state_fingerprint
from repro.cluster import Cluster, ClusterSpec, MachineSpec
from repro.experiments.sweep import _drive_churn
from repro.faults import FaultInjector, FaultPlan
from repro.obs import TraceCollector
from tests.broker.conftest import install_greedy


def _boot(cluster, fed, journal=None):
    """Start the broker either directly or as a federation of one."""
    if fed:
        return cluster.start_federation(shards=1, journal=journal).services[0]
    return cluster.start_broker(journal=journal)


def _artifacts(cluster, svc, tmp_path, tag):
    cluster.assert_no_crashes()
    collector = TraceCollector()
    collector.add_cluster(cluster, label="identity")
    path = tmp_path / f"fed-identity-{tag}.jsonl"
    collector.write(str(path))
    events = json.dumps(svc.events, sort_keys=True, default=str)
    return events, state_fingerprint(svc.state), path.read_bytes()


def _churn_run(fed, seed, tmp_path):
    cluster = Cluster(ClusterSpec.uniform(8, seed=seed))
    svc = _boot(cluster, fed)
    svc.wait_ready()
    _drive_churn(cluster, svc, 120.0)
    return _artifacts(cluster, svc, tmp_path, f"churn-{seed}-{fed}")


def test_one_shard_churn_identical_to_plain_broker(tmp_path):
    for seed in (1, 7):
        plain = _churn_run(False, seed, tmp_path)
        fed = _churn_run(True, seed, tmp_path)
        assert fed[0] == plain[0], f"event log diverged (seed {seed})"
        assert fed[1] == plain[1], f"fingerprint diverged (seed {seed})"
        assert fed[2] == plain[2], f"trace diverged (seed {seed})"


def _reclaim_run(fed, seed, tmp_path):
    spec = ClusterSpec(
        machines=[
            MachineSpec(name="n00"),
            MachineSpec(name="n01"),
            MachineSpec(name="n02"),
            MachineSpec(name="p00", private_owner="ann"),
        ],
        seed=seed,
    )
    cluster = Cluster(spec)
    svc = _boot(cluster, fed)
    svc.wait_ready()
    # Owner comes and goes on the private machine: the adaptive job is
    # granted it, reclaimed off it, and re-granted — the §3 dance.
    cluster.add_owner_activity("p00", mean_away=60.0, mean_present=30.0)
    install_greedy(cluster)
    svc.submit("n00", ["greedy", "3"], rsl="+(adaptive)", uid="a")
    cluster.env.run(until=400.0)
    return _artifacts(cluster, svc, tmp_path, f"reclaim-{seed}-{fed}")


def test_one_shard_reclaim_identical_to_plain_broker(tmp_path):
    plain = _reclaim_run(False, 11, tmp_path)
    fed = _reclaim_run(True, 11, tmp_path)
    assert fed[0] == plain[0]
    assert fed[1] == plain[1]
    assert fed[2] == plain[2]


def _chaos_run(fed, seed, tmp_path):
    cluster = Cluster(ClusterSpec.uniform(6, seed=seed))
    svc = _boot(cluster, fed, journal=True)
    svc.wait_ready()
    worker_hosts = [f"n{i:02d}" for i in range(1, 6)]
    stream = cluster.env.rng.stream("faults.plan")
    plan = FaultPlan.generate(
        stream,
        worker_hosts,
        start=5.0,
        window=40.0,
        crashes=2,
        partitions=1,
        broker_crashes=1,
    )
    FaultInjector(cluster, plan).start()
    handle = svc.submit(
        "n00", ["calypso", "40", "2.0", "3"], rsl="+(adaptive)", uid="cal"
    )
    cluster.env.run(until=400.0)
    assert handle.exit_code == 0
    return _artifacts(cluster, svc, tmp_path, f"chaos-{seed}-{fed}")


def test_one_shard_chaos_identical_to_plain_broker(tmp_path):
    for seed in (2, 5):
        plain = _chaos_run(False, seed, tmp_path)
        fed = _chaos_run(True, seed, tmp_path)
        assert fed[0] == plain[0], f"event log diverged (seed {seed})"
        assert fed[1] == plain[1], f"fingerprint diverged (seed {seed})"
        assert fed[2] == plain[2], f"trace diverged (seed {seed})"


def test_one_shard_federation_reuses_standalone_surfaces():
    cluster = Cluster(ClusterSpec.uniform(4, seed=1))
    federation = cluster.start_federation(shards=1)
    # The degenerate federation exposes the standalone handle and routes
    # every submission to its only shard.
    assert cluster.broker is federation.services[0]
    assert federation.shards == 1
    assert federation.shard_of("n03") == 0
    svc = federation.services[0]
    assert svc.shard is not None and svc.shard.count == 1
    # No federated machinery is armed: not replicated, not fenced.
    assert not svc.replicated
    assert not svc.fencing
