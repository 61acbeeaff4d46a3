"""Soak tests: sustained mixed workloads and machine crashes.

These run longer simulated spans with many concurrent jobs and check the
*global* invariants rather than single behaviours: no process crashes, no
double-booked machines, allocations only for live jobs, and the adaptive
jobs end up sharing whatever is left.
"""

import pytest

from repro.broker.invariants import Oracle
from repro.cluster import Cluster, ClusterSpec, MachineSpec
from repro.os.signals import SIGKILL
from tests.broker.conftest import install_greedy


def _holdings_invariants(cluster):
    """The oracle's book-keeping properties: every allocation belongs to a
    live job and no host is booked twice."""
    violation = Oracle(cluster).check_books()
    assert violation is None, violation


def test_mixed_workload_soak():
    cluster = Cluster(ClusterSpec.uniform(8, seed=13))
    svc = cluster.start_broker()
    svc.wait_ready()
    install_greedy(cluster)

    # Two adaptive jobs competing for the cluster.
    svc.submit("n00", ["greedy", "6"], rsl="+(adaptive)", uid="a")
    svc.submit("n01", ["greedy", "6"], rsl="+(adaptive)", uid="b")
    cluster.env.run(until=cluster.now + 10.0)

    # A stream of 20 rigid jobs with varying durations.
    rng = cluster.env.rng.stream("soak")
    handles = []
    for i in range(20):
        dur = float(rng.uniform(2.0, 20.0))
        handles.append(
            svc.submit(
                "n02",
                ["rsh", "anylinux", "compute", f"{dur:.2f}"],
                uid=f"seq{i}",
            )
        )
        cluster.env.run(until=cluster.now + float(rng.uniform(1.0, 8.0)))
        _holdings_invariants(cluster)

    cluster.env.run(
        until=cluster.env.all_of([h.proc.terminated for h in handles])
    )
    assert all(h.exit_code == 0 for h in handles)
    cluster.env.run(until=cluster.now + 15.0)
    _holdings_invariants(cluster)

    # With the rigid stream drained, the two adaptive jobs share the
    # available machines roughly evenly.
    holdings = svc.holdings()
    adaptive_counts = sorted(len(v) for v in holdings.values())
    assert sum(adaptive_counts) >= 6
    assert max(adaptive_counts) - min(adaptive_counts) <= 1
    cluster.assert_no_crashes()


def test_machine_crash_recovery():
    cluster = Cluster(ClusterSpec.uniform(5, seed=17))
    svc = cluster.start_broker()
    svc.wait_ready()
    install_greedy(cluster)
    handle = svc.submit("n00", ["greedy", "4"], rsl="+(adaptive)", uid="a")
    cluster.env.run(until=cluster.now + 6.0)
    job = handle.job_record()
    assert len(svc.holdings()[job.jobid]) == 4

    cluster.crash_machine("n02", reboot_after=4.0)
    cluster.env.run(until=cluster.now + 30.0)

    # The worker on n02 died with the machine; the adaptive job replaced it
    # (possibly on the rebooted n02 itself), the broker's daemon keeper
    # restarted monitoring, and nothing is double-booked.
    assert len(svc.holdings()[job.jobid]) == 4
    daemons = [
        p
        for p in cluster.machine("n02").procs.values()
        if p.argv[0] == "rbdaemon"
    ]
    assert len(daemons) == 1
    _holdings_invariants(cluster)
    cluster.assert_no_crashes()


def test_crash_during_revocation_does_not_wedge_the_queue():
    """The machine being revoked dies mid-revocation: the pending firm
    request must still eventually be satisfied elsewhere."""
    cluster = Cluster(ClusterSpec.uniform(4, seed=19))
    svc = cluster.start_broker()
    svc.wait_ready()
    install_greedy(cluster)
    handle = svc.submit("n00", ["greedy", "3"], rsl="+(adaptive)", uid="a")
    cluster.env.run(until=cluster.now + 6.0)
    job = handle.job_record()

    seq = svc.submit("n00", ["rsh", "anylinux", "null"])
    # Find which machine the broker chose to reclaim and crash it mid-
    # revocation (the graceful worker shutdown takes ~1 s, so waiting for
    # the revoke event still lands us inside the window).
    deadline = cluster.now + 5.0
    while not svc.events_of("revoke") and cluster.now < deadline:
        cluster.env.run(until=cluster.now + 0.05)
    revokes = svc.events_of("revoke")
    assert revokes
    cluster.crash_machine(revokes[-1]["host"], reboot_after=3.0)

    code = seq.wait()
    assert code == 0
    cluster.env.run(until=cluster.now + 20.0)
    _holdings_invariants(cluster)
    cluster.assert_no_crashes()
