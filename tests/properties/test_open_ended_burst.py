"""Differential oracle: ``gracespin`` as one open-ended burst vs the tick loop.

The shipped ``gracespin`` holds its CPU with a single ``compute(math.inf)``.
The program it replaced re-armed a one-second burst for ever; that loop is
kept here, and only here, as the reference.  Both run the same churn cell
and must agree on everything the simulation *did*: the broker's event log,
every span, every metric — except the one place the programs legitimately
differ.  A revoked worker now stays on the CPU until it exits (as a Calypso
worker does) instead of until its current tick happened to end, so a daemon
probe that falls between the two sees load 1 where it saw 0, and a
load-only full report turns into a beacon.  What the open-ended burst buys
is kernel events: one per worker per second.
"""

import json

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.sweep import _drive_churn
from repro.sim.process import Interrupt
from repro.workloads import greedy_main

SIM_SECONDS = 60.0

#: The only metrics the two programs may disagree on.
REPORT_COUNTERS = {
    "rbdaemon.beacons",
    "rbdaemon.full_reports",
    "rbdaemon.report_bytes",
}


def ticking_gracespin_main(proc):
    """The reference: ``gracespin`` as it was, endless 1-second bursts."""
    cal = proc.machine.network.calibration
    while True:
        try:
            yield proc.compute(1.0, tag="gracespin")
        except Interrupt:
            yield proc.sleep(cal.adaptive_shutdown)
            return 0


def churn_cell(machines, seed, ticking):
    cluster = Cluster(ClusterSpec.uniform(machines, seed=seed))
    service = cluster.start_broker()
    service.wait_ready()
    if ticking:
        # Under the shipped names, so that ``install_churn`` (idempotent)
        # leaves them alone and ``greedy`` spawns the reference.
        cluster.system_bin.register("gracespin", ticking_gracespin_main)
        cluster.system_bin.register("greedy", greedy_main)
    _drive_churn(cluster, service, SIM_SECONDS)
    cluster.assert_no_crashes()
    return cluster, service


def canonical(records):
    return [json.dumps(record, sort_keys=True) for record in records]


def spans_of(cluster):
    return [
        [
            span.name,
            span.trace_id,
            span.span_id,
            span.parent_id,
            span.started_at,
            span.ended_at,
            span._attrs or {},
        ]
        for span in cluster.network.tracer.spans
    ]


# The churn cell draws nothing from its seed, so the second case also
# changes the size: other heartbeat phases, another probe in the gap.
@pytest.mark.parametrize("machines, seed", [(16, 1), (24, 2)])
def test_open_ended_gracespin_matches_the_ticking_reference(machines, seed):
    want_cluster, want_service = churn_cell(machines, seed, ticking=True)
    got_cluster, got_service = churn_cell(machines, seed, ticking=False)

    assert canonical(got_service.events) == canonical(want_service.events)
    assert canonical(spans_of(got_cluster)) == canonical(spans_of(want_cluster))

    want = want_cluster.network.metrics.snapshot()
    got = got_cluster.network.metrics.snapshot()
    moved = {
        name
        for name in want.keys() | got.keys()
        if want.get(name) != got.get(name)
    }
    assert moved <= REPORT_COUNTERS

    # Every probe still reports; only *which kind* of report may change, and
    # only for a probe that lands inside a revoked worker's shutdown.
    want_beacons, want_full, got_beacons, got_full = (
        snapshot[name]["value"]
        for snapshot in (want, got)
        for name in ("rbdaemon.beacons", "rbdaemon.full_reports")
    )
    assert got_beacons + got_full == want_beacons + want_full
    revokes = len(want_service.events_of("revoke"))
    assert revokes >= 1  # or the bound below says nothing
    assert abs(got_full - want_full) <= revokes

    # The point of the change: no kernel event per worker per second.
    workers = machines - 1
    saved = (
        want_cluster.env.heap_stats()["processed"]
        - got_cluster.env.heap_stats()["processed"]
    )
    assert saved >= 0.8 * workers * SIM_SECONDS
