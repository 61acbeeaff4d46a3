"""Federated control plane: sharding, borrowing, recall and recovery.

Integration tests for DESIGN.md §17 at the scale unit tests can afford:
two-to-three shard federations over a handful of machines, driving the
borrow protocol end to end — forward, loan, cross-shard grant, return —
plus its unhappy paths: owner-return recall of a loaned machine and a
borrower-shard crash with a live loan (durable shards must recover the
borrowed record and finish the job, with zero double grants).
"""

import pytest

from repro.broker.federation import shard_partitions
from repro.cluster import Cluster, ClusterSpec, MachineSpec
from tests.broker.conftest import recalled


def test_shard_partitions_contiguous_and_validated():
    hosts = [f"n{i:02d}" for i in range(10)]
    parts = shard_partitions(hosts, 4)
    assert [len(p) for p in parts] == [3, 2, 3, 2]
    assert [h for part in parts for h in part] == hosts
    with pytest.raises(ValueError):
        shard_partitions(hosts, 1)
    with pytest.raises(ValueError):
        shard_partitions(hosts, 11)


def test_locality_routing_and_jobid_stride():
    cluster = Cluster(ClusterSpec.uniform(8, seed=1))
    federation = cluster.start_federation(shards=2)
    federation.wait_ready()
    assert federation.shard_of("n02") == 0
    assert federation.shard_of("n06") == 1
    a = federation.submit("n01", ["compute", "3"], uid="u")
    b = federation.submit("n05", ["compute", "3"], uid="u")
    cluster.env.run(until=cluster.now + 30.0)
    # Each job lives only in its home shard, and the jobid spaces are
    # strided per shard so merged logs never collide.
    assert sorted(federation.services[0].state.jobs) == [1]
    assert sorted(federation.services[1].state.jobs) == [1_000_001]
    assert a.exit_code == 0 and b.exit_code == 0


def test_cross_shard_borrow_grant_and_return():
    cluster = Cluster(ClusterSpec.uniform(8, seed=3))
    federation = cluster.start_federation(shards=2)
    federation.wait_ready()
    # Shard 0 manages n00-n03; a 4-wide adaptive job from n00 has only
    # three local candidates, so the fourth worker must be borrowed.
    handle = federation.submit(
        "n00", ["calypso", "30", "2.0", "4"], rsl="+(adaptive)", uid="cal"
    )
    for _ in range(120):  # poll: the loan is live only mid-flight
        cluster.env.run(until=cluster.now + 1.0)
        borrower, donor = federation.federation_stats()
        if borrower["borrowed_machines"] >= 1:
            break
    assert borrower["borrowed_machines"] >= 1
    assert borrower["cross_shard_grants"] >= 1
    assert borrower["forwards"] >= 1
    assert donor["loaned_machines"] >= 1
    assert donor["loans_out"] >= 1
    cluster.env.run(until=300.0)
    assert handle.exit_code == 0
    cluster.assert_no_crashes()
    borrower, donor = federation.federation_stats()
    # The loan was returned: no borrowed records linger on the borrower,
    # nothing stays MIGRATING on the donor, and the machine is free again.
    assert borrower["borrowed_machines"] == 0
    assert donor["loaned_machines"] == 0
    assert borrower["returns"] >= 1
    assert all(
        record.allocation is None
        for service in federation.services
        for record in service.state.machines.values()
    )
    assert borrower["double_grants"] == 0 and donor["double_grants"] == 0


def test_loan_recall_on_owner_return(frees):
    spec = ClusterSpec(
        machines=[
            MachineSpec(name="n00"),
            MachineSpec(name="n01"),
            MachineSpec(name="n02"),
            MachineSpec(name="n03"),
            MachineSpec(name="p00", private_owner="ann"),
        ],
        seed=2,
    )
    cluster = Cluster(spec)
    federation = cluster.start_federation(shards=2, journal=True)
    assert federation.partitions == [["n00", "n01", "n02"], ["n03", "p00"]]
    federation.wait_ready()
    # Two local candidates for a 4-wide job: both of shard 1's machines —
    # including ann's idle private one — get loaned across.
    handle = federation.submit(
        "n00", ["calypso", "60", "2.0", "4"], rsl="+(adaptive)", uid="cal"
    )
    donor = federation.services[1]
    for _ in range(120):  # poll until the private machine is loaned out
        cluster.env.run(until=cluster.now + 1.0)
        if donor.state.machine("p00").allocation is not None:
            break
    assert donor.state.machine("p00").allocation is not None
    # Ann sits down at her console.  Her shard observes it through the
    # daemon report and recalls the loan; the borrower revokes the worker
    # and the adaptive job shrinks instead of dying.
    cluster.machine("p00").console_active = True
    cluster.env.run(until=cluster.now + 60.0)
    stats = federation.federation_stats()
    assert stats[1]["recalls"] >= 1
    assert "p00" not in federation.services[0].state.machines
    assert donor.state.machine("p00").allocation is None
    # The loan came back through the ordinary return path: the borrower's
    # app released the machine, and each shard freed it exactly once.
    returned = [f for f in frees if f.host == "p00"]
    assert [f.control.service for f in returned] == federation.services
    for freed in returned:
        assert freed.outcome is None
        freed.assert_clean(spanned=False)
    assert "p00" not in recalled(donor)
    cluster.env.run(until=600.0)
    assert handle.exit_code == 0
    cluster.assert_no_crashes()
    assert sum(blk["double_grants"] for blk in federation.federation_stats()) == 0


def test_borrower_crash_recovers_live_loan():
    cluster = Cluster(ClusterSpec.uniform(8, seed=5))
    federation = cluster.start_federation(shards=2, journal=True)
    federation.wait_ready()
    handle = federation.submit(
        "n00", ["calypso", "40", "2.0", "4"], rsl="+(adaptive)", uid="cal"
    )
    borrower = federation.services[0]

    def live_loans():
        return [
            host
            for host, record in borrower.state.machines.items()
            if record.borrowed_from is not None
        ]

    for _ in range(120):  # poll: crash while the loan is live
        cluster.env.run(until=cluster.now + 1.0)
        if live_loans():
            break
    assert live_loans(), "expected a live loan before the crash"
    borrower.crash_broker()
    cluster.env.run(until=cluster.now + 5.0)
    borrower.restart_broker()
    cluster.env.run(until=600.0)
    assert handle.exit_code == 0
    cluster.assert_no_crashes()
    stats = federation.federation_stats()
    assert sum(blk["double_grants"] for blk in stats) == 0
    assert all(blk["borrowed_machines"] == 0 for blk in stats)
    assert all(blk["loaned_machines"] == 0 for blk in stats)


def test_stats_rpc_and_rbstat_render_federation_block():
    from repro.broker import protocol
    from repro.broker.tools import format_stats
    from repro.cluster import ports

    cluster = Cluster(ClusterSpec.uniform(8, seed=3))
    federation = cluster.start_federation(shards=2)
    federation.wait_ready()
    federation.submit(
        "n00", ["calypso", "30", "2.0", "4"], rsl="+(adaptive)", uid="cal"
    )
    cluster.env.run(until=cluster.now + 40.0)
    replies = []

    @cluster.system_bin.register("statpoll")
    def statpoll(proc):
        conn = yield proc.connect("n00", ports.BROKER)
        conn.send(protocol.stats_request())
        reply = yield conn.recv()
        conn.close()
        replies.append(reply)
        return 0

    proc = cluster.run_command("n01", ["statpoll"], uid="op")
    cluster.env.run(until=proc.terminated)
    assert proc.exit_code == 0
    block = replies[0]["stats"]["federation"]
    assert block["enabled"]
    assert block["shard"] == 0 and block["shards"] == 2
    assert block["owned_machines"] == 4
    assert block["cross_shard_grants"] >= 1
    rendered = format_stats(replies[0]["stats"])
    assert "federation: shard=0/2" in rendered
    assert "cross_grants=" in rendered
    # A standalone broker's snapshot renders no federation block at all.
    assert "federation" not in format_stats({"federation": {"enabled": False}})


def test_one_shard_federation_is_refused():
    cluster = Cluster(ClusterSpec.uniform(4, seed=1))
    with pytest.raises(ValueError, match="start_broker"):
        cluster.start_federation(shards=1)
    assert cluster.federation is None and cluster.broker is None


def _spy_borrow_asks(monkeypatch):
    """Record every borrow request a shard sends, as (asking shard, asked
    shard, symbolic name, simulated time)."""
    from repro.broker.federation import Borrowing

    asked = []
    original = Borrowing._borrow_rpc

    def spy(self, shard, job, request):
        asked.append(
            (self.service.shard.index, shard, request.symbolic, self.proc.env.now)
        )
        return (yield from original(self, shard, job, request))

    monkeypatch.setattr(Borrowing, "_borrow_rpc", spy)
    return asked


def _fill(federation, hosts, seconds):
    """Submit one ``seconds``-long job from each of ``hosts``, in order, and
    let them be granted.  A job is never granted the machine it was
    submitted from."""
    handles = []
    for host in hosts:
        argv = ["rsh", "anylinux", "compute", str(seconds)]
        handles.append(federation.submit(host, argv, uid="f"))
        federation.env.run(until=federation.env.now + 2.0)
    return handles


@pytest.mark.parametrize(
    "home, symbolic, first",
    [
        # crc32("anyhost") % 3 == 2 and crc32("anylinux") % 3 == 0 ...
        ("n03", "anyhost", 2),
        ("n03", "anylinux", 0),
        # ... and a shard never asks itself: shard 0 starts past its own slot.
        ("n00", "anylinux", 1),
    ],
)
def test_three_shard_borrow_starts_at_the_name_hash(monkeypatch, home, symbolic, first):
    asked = _spy_borrow_asks(monkeypatch)
    cluster = Cluster(ClusterSpec.uniform(9, seed=4))
    federation = cluster.start_federation(shards=3)
    federation.wait_ready()
    mine = federation.shard_of(home)
    # Both machines the home shard could grant a job from ``home`` are
    # busy, so the request must cross.
    fillers = _fill(federation, [home, home], 40)
    handle = federation.submit(home, ["rsh", symbolic, "compute", "5"], uid="x")
    cluster.env.run(until=cluster.now + 30.0)
    ours = [(shard, name) for index, shard, name, _ in asked if index == mine]
    assert ours and ours[0] == (first, symbolic)
    stats = federation.federation_stats()
    assert stats[mine]["cross_shard_grants"] == 1
    assert stats[first]["loans_out"] == 1
    cluster.env.run(until=cluster.now + 120.0)
    assert handle.exit_code == 0
    assert all(f.exit_code == 0 for f in fillers)
    cluster.assert_no_crashes()


def test_resumed_request_borrows_from_the_name_hash_first(monkeypatch):
    asked = _spy_borrow_asks(monkeypatch)
    cluster = Cluster(ClusterSpec.uniform(9, seed=4))
    # Durable, so the restarted shard still knows its fillers' leases are
    # firm and the request waits for a machine instead of preempting one.
    federation = cluster.start_federation(shards=3, journal=True)
    federation.wait_ready()
    # Every machine of every shard is busy: no sibling can lend, so the
    # request stays queued on shard 1 across its broker's restart.
    fillers = []
    for first, second, _ in federation.partitions:
        fillers += _fill(federation, [first, first, second], 60)
    assert not [a for a in asked if a[2] == "anylinux"]
    handle = federation.submit("n03", ["rsh", "anyhost", "compute", "5"], uid="x")
    cluster.env.run(until=cluster.now + 10.0)
    assert [(s, n) for i, s, n, _ in asked if i == 1][:1] == [(2, "anyhost")]
    borrower = federation.services[1]
    borrower.crash_broker()
    cluster.env.run(until=cluster.now + 2.0)
    restarted = cluster.now
    borrower.restart_broker()
    cluster.env.run(until=cluster.now + 15.0)
    resubmitted = [
        entry
        for entry in borrower.events_of("machine_request")
        if entry.get("resubmitted") and entry["symbolic"] == "anyhost"
    ]
    assert len(resubmitted) == 1
    after = [(s, n) for i, s, n, t in asked if i == 1 and t > restarted]
    assert after and after[0] == (2, "anyhost")
    cluster.env.run(until=cluster.now + 200.0)
    assert handle.exit_code == 0
    assert all(f.exit_code == 0 for f in fillers)
    cluster.assert_no_crashes()
