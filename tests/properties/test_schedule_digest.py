"""Property: what the simulation *did* is pinned, not how many events it took.

``schedule_digest`` hashes the broker event log, every span (ids, times,
attrs) and the metrics snapshot of a cluster, and nothing derived from
``env.heap_stats()``.  The hex values below were captured at the commit
*before* the kernel learned to fuse events (one heap entry per CPU burst,
one per heartbeat wait), so they are the behavioural contract of every such
change: a kernel that dispatches fewer events for the same schedule keeps
them, one that shifts a grant, a report or a span by a float ulp does not.
"""

import hashlib
from contextlib import contextmanager

import pytest

from repro.cluster import Cluster
from repro.experiments import run_cell, run_chaos, run_table2
from repro.experiments.soak import run_soak
from repro.experiments.sweep import schedule_digest

#: Captured at the parent of the event-fusion change.  Do not repin to make
#: a kernel change pass: a moved pin is a changed schedule.
PINS = {
    # Repinned once, when ``gracespin`` became one open-ended burst: a revoked
    # worker now holds the CPU until it exits, so three probes (one per
    # revoke) report load 1 where they saw 0 — rbdaemon.beacons 3,124 ->
    # 3,127, full_reports 908 -> 905, report_bytes 365,129 -> 364,631; event
    # log, spans and every other metric equal (the ticking program is the
    # oracle in test_open_ended_burst.py).
    "churn-64": "6dea141056a71a2a1fe4e47ad0c6083c2e4ad8d54dd95205798a96b72a111a3c",
    "chaos-journal": "e7fc09db61b5c37fca8fdab094973bb086527c9fb06beceb0cc4f08ae3d340fd",
    "chaos-standby": "8836d2608a9dd946b867d0d8dc50a0239d9f45d18f7ccce9a47ee4d21ae9c84b",
    "chaos-shards": "b1fb72abb51e1b708b1862bd0978bdf07b8f5bafe21cb4d3af1f3c55cc79f2d4",
    "soak-12": "8dc48a54fea859fe8e026ba2d95e70b1602a4165c24a7b24b842c51a7401836f",
    "table2": "d755c5a13ccfae593b38412fe1312d506589c59eaf4c23338e2590a06649e2ac",
}


@contextmanager
def built_clusters():
    """Collect every ``Cluster`` built inside the block: the experiment
    functions return tables, not the clusters they ran."""
    built = []
    original = Cluster.__init__

    def recording_init(self, spec):
        original(self, spec)
        built.append(self)

    Cluster.__init__ = recording_init
    try:
        yield built
    finally:
        Cluster.__init__ = original


def _digest_of(fn, *args, **kwargs):
    """One digest over every cluster ``fn`` builds, in build order."""
    with built_clusters() as built:
        fn(*args, **kwargs)
    assert built
    joined = "".join(schedule_digest(cluster) for cluster in built)
    return hashlib.sha256(joined.encode()).hexdigest()


SCENARIOS = {
    "chaos-journal": lambda: _digest_of(
        run_chaos, 1, journal=True, broker_crashes=1
    ),
    "chaos-standby": lambda: _digest_of(run_chaos, 1, standby=True),
    "chaos-shards": lambda: _digest_of(run_chaos, 1, shards=2),
    "soak-12": lambda: _digest_of(
        run_soak, seed=1, machines=12, submissions=300, restarts=2
    ),
    # Table 2's "loop" rows are the shared-CPU side of processor sharing.
    "table2": lambda: _digest_of(run_table2),
}


def test_churn_cell_schedule_digest_pinned():
    cell = run_cell("churn", 64, 1, 2.0)
    assert cell["result"]["schedule_digest"] == PINS["churn-64"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_experiment_schedule_digest_pinned(name):
    assert SCENARIOS[name]() == PINS[name]


def test_schedule_digest_ignores_kernel_event_counts():
    """Extra kernel events that change nothing observable keep the digest;
    an observable difference (one more logged event) moves it."""
    from repro.cluster import ClusterSpec

    def run(noise):
        cluster = Cluster(ClusterSpec.uniform(4, seed=3))
        service = cluster.start_broker()
        service.wait_ready()
        if noise:
            for _ in range(50):
                cluster.env.timeout(0.5)
        cluster.env.run(until=cluster.now + 5.0)
        return cluster, service

    plain, _ = run(noise=False)
    noisy, service = run(noise=True)
    assert (
        noisy.env.heap_stats()["processed"]
        == plain.env.heap_stats()["processed"] + 50
    )
    assert schedule_digest(noisy) == schedule_digest(plain)
    service.log(event="probe")
    assert schedule_digest(noisy) != schedule_digest(plain)
