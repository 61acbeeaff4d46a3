"""The steps every paper experiment shares: one measurement path.

Each paper measurement builds a fresh cluster (:func:`paper_cluster`),
optionally lets an adaptive Calypso job occupy machines (:func:`occupy`),
times one command (:func:`time_rsh`, :func:`time_submit`, or its own
steps), then checks that no simulated process crashed and captures the
cluster as one labelled trace group (:func:`record`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

from repro.cluster import Cluster, ClusterSpec


@contextmanager
def paper_cluster(machines: int, seed: int, broker: bool) -> Iterator[Cluster]:
    """A fresh ``n00..`` cluster of ``machines``, its broker ready if
    ``broker``; closed when the block ends."""
    with Cluster(ClusterSpec.uniform(machines, seed=seed)) as cluster:
        if broker:
            cluster.start_broker()
            cluster.broker.wait_ready()
        yield cluster


def occupy(cluster: Cluster, svc, argv: List[str], machines: int, within: float):
    """Submit ``argv`` from n00 as an adaptive job of user ``cal`` and run
    in half-second steps until it holds ``machines`` machines (at most
    ``within`` simulated seconds); returns its handle."""
    handle = svc.submit("n00", argv, rsl="+(adaptive)", uid="cal")

    def held() -> int:
        job = handle.job_record()
        return svc.state.holding_count(job.jobid) if job else 0

    deadline = cluster.now + within
    while cluster.now < deadline:
        cluster.env.run(until=cluster.now + 0.5)
        if held() == machines:
            break
    assert held() == machines, svc.holdings()
    cluster.assert_no_crashes()
    return handle


def record(cluster: Cluster, label: str, trace=None) -> None:
    """Check that no simulated process crashed, then add the cluster to
    ``trace`` (a :class:`repro.obs.TraceCollector`, if any) as ``label``."""
    cluster.assert_no_crashes()
    if trace is not None:
        trace.add_cluster(cluster, label=label)


def time_rsh(cluster: Cluster, program: str, trace=None) -> float:
    """Seconds for a plain ``rsh n01 program`` issued on n00."""
    t0 = cluster.now
    proc = cluster.run_command("n00", ["rsh", "n01", program])
    cluster.env.run(until=proc.terminated)
    assert proc.exit_code == 0, f"rsh n01 {program} failed"
    record(cluster, f"rsh n01 {program}", trace)
    return cluster.now - t0


def time_submit(cluster: Cluster, host: str, program: str, trace=None) -> float:
    """Seconds for ``rsh' host program`` submitted through the broker on n00."""
    t0 = cluster.now
    code = cluster.broker.submit("n00", ["rsh", host, program]).wait()
    assert code == 0, f"rsh' {host} {program} failed"
    record(cluster, f"rsh' {host} {program}", trace)
    return cluster.now - t0
