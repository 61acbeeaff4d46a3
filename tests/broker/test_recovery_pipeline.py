"""The one recovery pipeline, through each of its three entry points.

A journal restart replays the state from disk, a blank restart rebuilds it
from daemon re-registration and app resumption, and a standby promotion
takes over the shadow state the standby replayed from the shipped WAL; all
three then run :func:`repro.broker.recovery.recover`.  Whichever way the
broker came back, once it has reconciled it holds the pre-crash state —
modulo what recovery re-stamps — and the invariant oracle holds to the end.
"""

from __future__ import annotations

import pytest

from repro.broker.recovery import state_fingerprint
from repro.cluster import Cluster, ClusterSpec

WORKERS = ["n00", "n01", "n02", "n03", "n04"]
STANDBY = "n05"


def _restamped(state):
    """The state's fingerprint without the fields recovery re-stamps:
    report and silence clocks, machine load, lease expiries, and a grant's
    instant and firmness (a blank restart re-adopts holdings from daemon
    inventories and app claims, which know neither)."""
    fingerprint = state_fingerprint(state)
    return {
        "jobs": fingerprint["jobs"],
        "allocations": {
            host: (a["jobid"], a["astate"], a["claim"], a["loan"])
            for host, a in fingerprint["allocations"].items()
        },
        "pending": [
            (p["reqid"], p["jobid"], p["symbolic"], p["firm"])
            for p in fingerprint["pending"]
        ],
        "machines": {
            host: (m["platform"], m["mkind"], m["owner"], m["borrowed"])
            for host, m in fingerprint["machines"].items()
        },
    }


@pytest.mark.parametrize("entry", ["journal", "blank", "promotion"])
def test_every_entry_point_recovers_the_pre_crash_state(checked, entry):
    cluster = Cluster(ClusterSpec.uniform(len(WORKERS) + 1, seed=3))
    svc = cluster.start_broker(
        journal=entry != "blank",
        standby_host=STANDBY if entry == "promotion" else None,
        managed_hosts=WORKERS,
    )
    svc.wait_ready()
    handles = [
        svc.submit("n01", ["rsh", "anylinux", "compute", f"{work:g}"], uid=f"u{i}")
        for i, work in enumerate((30.0, 40.0))
    ]
    cluster.env.run(until=cluster.now + 10.0)
    before = _restamped(svc.state)
    assert len(before["allocations"]) == 2
    epoch = svc.epoch

    svc.crash_broker()
    if entry != "promotion":
        svc.restart_broker()
    cluster.env.run(until=cluster.now + 15.0)

    recovered = svc.events_of(
        "broker_promoted" if entry == "promotion" else "recovery"
    )
    assert len(recovered) == 1 and svc.epoch == epoch + 1 and svc.broker_alive
    if entry != "promotion":
        source = "reregistration" if entry == "blank" else "journal"
        assert recovered[0]["source"] == source
    assert _restamped(svc.state) == before

    for handle in handles:
        assert handle.wait() == 0
    cluster.env.run(until=cluster.now + 2 * cluster.calibration.lease_ttl)
    cluster.assert_no_crashes()
    assert checked.settled() is None
