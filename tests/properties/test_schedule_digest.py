"""Property: what the simulation *did* is pinned, not how many events it took.

``schedule_digest`` hashes the broker event log, every span (ids, times,
attrs) and the metrics snapshot of a cluster, and nothing derived from
``env.heap_stats()``.  The hex values below are the behavioural contract
of every kernel change: a kernel that dispatches fewer events for the same
schedule keeps them, one that shifts a grant, a report or a span by a float
ulp does not.  Each was captured before the kernel learned to fuse events
(one heap entry per CPU burst, one per heartbeat wait) and has moved only
for the reasons its comment gives.
"""

import hashlib
from contextlib import contextmanager

import pytest

from repro.cluster import Cluster
from repro.experiments import run_cell, run_chaos, run_table2
from repro.experiments.soak import run_soak
from repro.experiments.sweep import schedule_digest

#: Do not repin to make a kernel change pass: a moved pin is a changed
#: schedule.
#:
#: Every pin moved once when each beacon became sized by its own timestamp
#: (``daemon.BEACON_BASE + daemon.stamp_bytes(t)``, 53 B for every beacon
#: before): only ``rbdaemon.report_bytes`` rose, as each comment says, and
#: with that counter left out of the metrics snapshot each digest equals
#: the one it replaced.
PINS = {
    # Repinned once before that, when ``gracespin`` became one open-ended
    # burst: a revoked worker now holds the CPU until it exits, so three
    # probes (one per revoke) report load 1 where they saw 0 —
    # rbdaemon.beacons 3,124 -> 3,127, full_reports 908 -> 905; event log,
    # spans and every other metric equal (the ticking program is the oracle
    # in test_open_ended_burst.py).  report_bytes 364,631 -> 384,051.
    "churn-64": "fdf447845db14111b57513e56faa58ccdb5db72476c4d1eb12f7dea82cda97f7",
    # report_bytes 24,682 -> 26,295.
    "chaos-journal": "6cb356025a0925635cbf27dddd26a4425491d4f391ace50d258367ba5f66ec49",
    # report_bytes 25,371 -> 27,260.
    "chaos-standby": "ab6480226ca3f8c722ffc840f35342fe9066da1edb0c85f4cd89a0e2d9fb75c9",
    # report_bytes 26,586 -> 28,211.
    "chaos-shards": "adddc93fa42466deb708164e1efe7c16ecca62a80c57ffe9853c5bb29f4e5071",
    # report_bytes 275,888 -> 291,565.
    "soak-12": "ad74966e3cb1fc47cc5dde42eabe67d1193f5a67d9932202b69e1ab5dfb0f85d",
    # report_bytes 6,683 -> 6,863.
    "table2": "09ba19205445950156ddc563ef6da52379c197b6fda818239ec272f2d6c890a7",
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
