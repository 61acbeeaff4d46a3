"""Warm-standby failover and fencing (DESIGN.md §16).

These pin the four rows of the §16 failure matrix end to end: primary
machine death (promotion), standby death (keeper respawn + stream resume),
a ship-link partition (false promotion, resolved by fencing with zero
double grants), and a stale-epoch broker fenced by its own daemons.
"""

import pytest

from repro.broker.daemon import EPOCH_WITNESS_PATH
from repro.cluster import Cluster, ClusterSpec
from repro.faults.netfaults import install
from repro.os.signals import SIGKILL
from tests.broker.conftest import install_greedy

WORKERS = ["n00", "n01", "n02", "n03"]
STANDBY = "n04"


@pytest.fixture
def standby_cluster():
    """4 managed machines plus an unmanaged warm-standby host."""
    cluster = Cluster(ClusterSpec.uniform(5, seed=7))
    cluster.start_broker(
        journal=True, standby_host=STANDBY, managed_hosts=WORKERS
    )
    cluster.broker.wait_ready()
    return cluster


def _counter(svc, name):
    return svc.metrics.counter(name).value


def _kill_standby_procs(cluster):
    killed = 0
    for p in list(cluster.machine(STANDBY).procs.values()):
        if p.is_alive and p.argv and p.argv[0] == "rbstandby":
            p.signal(SIGKILL)
            killed += 1
    return killed


def test_primary_machine_death_promotes_standby(standby_cluster):
    cluster = standby_cluster
    svc = cluster.broker
    install_greedy(cluster)
    handle = svc.submit("n01", ["greedy", "2"], rsl="+(adaptive)")
    cluster.env.run(until=cluster.now + 8.0)
    job = handle.job_record()
    assert len(svc.holdings()[job.jobid]) == 2

    crashed_at = cluster.now
    cluster.crash_machine("n00", reboot_after=None)
    cluster.env.run(until=cluster.now + 20.0)

    # The replica noticed the silence, promoted, and booted the broker on
    # the well-known secondary address under a strictly higher epoch.
    promoted = svc.events_of("broker_promoted")
    assert len(promoted) == 1
    assert svc.epoch == 2
    assert svc.broker_host == STANDBY
    assert svc.broker_alive
    # Promotion beats the restart path's fixed 4-second respawn delay
    # before it even starts recovering (the failover gate pins the full gap).
    deadline = cluster.network.calibration.standby_promotion_deadline
    assert promoted[0]["time"] - crashed_at < deadline + 1.0

    # The app resumed its session against the promoted broker and was
    # re-granted up to strength; nothing was granted twice.
    assert svc.events_of("session_resumed")
    assert handle.proc.is_alive
    assert len(svc.holdings()[job.jobid]) == 2
    assert "n00" not in svc.holdings()[job.jobid]
    assert _counter(svc, "broker.promotions") == 1
    assert _counter(svc, "fencing.double_grants") == 0
    cluster.assert_no_crashes()


def test_ship_link_partition_false_promotion_is_fenced(standby_cluster):
    cluster = standby_cluster
    svc = cluster.broker
    install_greedy(cluster)
    handle = svc.submit("n01", ["greedy", "2"], rsl="+(adaptive)")
    cluster.env.run(until=cluster.now + 8.0)
    job = handle.job_record()
    before = set(svc.holdings()[job.jobid])

    # Cut just primary<->standby: both brokers stay up and daemon-reachable.
    faults = install(cluster.network)
    faults.add_link_block("n00", STANDBY, 20.0)
    cluster.network.sever(faults.partitioned)
    cluster.env.run(until=cluster.now + 35.0)

    # The standby promoted falsely (silence is indistinguishable from
    # death), and once the partition healed the promoted broker's
    # fence_notice demoted the ex-primary instead of splitting the brain.
    assert len(svc.events_of("broker_promoted")) == 1
    demoted = svc.events_of("broker_demoted")
    assert len(demoted) == 1
    assert demoted[0]["witnessed"] == svc.epoch == 2
    assert svc.broker_host == STANDBY

    # Daemons re-registered with their lease inventories; the job's
    # holdings crossed the failover intact and were never double-granted.
    cluster.env.run(until=cluster.now + 10.0)
    assert handle.proc.is_alive
    assert set(svc.holdings()[job.jobid]) == before
    assert _counter(svc, "broker.promotions") == 1
    assert _counter(svc, "broker.demotions") == 1
    assert _counter(svc, "fencing.double_grants") == 0
    cluster.assert_no_crashes()


def test_standby_crash_respawns_and_resumes_stream(standby_cluster):
    cluster = standby_cluster
    svc = cluster.broker
    install_greedy(cluster)
    handle = svc.submit("n01", ["greedy", "2"], rsl="+(adaptive)")
    cluster.env.run(until=cluster.now + 6.0)
    assert _counter(svc, "ship.snapshots") == 1

    assert _kill_standby_procs(cluster) == 1
    cluster.env.run(until=cluster.now + 10.0)

    # The keeper respawned the replica; it resumed the stream from its
    # locally persisted offset — no second snapshot baseline was needed.
    assert _counter(svc, "broker.standby_restarts") >= 1
    assert _counter(svc, "ship.sessions") >= 2
    assert _counter(svc, "ship.snapshots") == 1

    # And the resumed shadow is a working failover target: kill the
    # primary machine and the promoted state still carries the job.
    job = handle.job_record()
    before = set(svc.holdings()[job.jobid])
    cluster.crash_machine("n00", reboot_after=None)
    cluster.env.run(until=cluster.now + 20.0)
    assert svc.epoch == 2
    assert svc.broker_host == STANDBY
    after = set(svc.holdings()[job.jobid])
    assert "n00" not in after
    assert len(after) == len(before)
    assert _counter(svc, "fencing.double_grants") == 0
    cluster.assert_no_crashes()


def test_stale_epoch_broker_is_rejected_and_demotes():
    """A daemon whose machine witnessed a higher epoch fences the broker:
    the persisted witness outranks any stamp a stale incarnation sends."""
    cluster = Cluster(ClusterSpec.uniform(5, seed=7))
    # The machine remembers a future epoch (as if a newer broker had
    # granted here before this stale incarnation came back).
    cluster.machine("n01").fs.write(EPOCH_WITNESS_PATH, "99")
    svc = cluster.start_broker(
        journal=True, standby_host=STANDBY, managed_hosts=WORKERS
    )
    cluster.env.run(until=cluster.now + 10.0)

    # n01's daemon answered the epoch-1 welcome with fence_reject; the
    # broker demoted itself (SIGKILL) rather than keep acting on stale
    # authority.  (The standby then promotes into the same fate: epoch 2
    # is below the witness too, so the cascade just proves the rule binds
    # every incarnation, not only the first.)
    assert svc.metrics.counter("fencing.rejections").value >= 1
    assert svc.metrics.counter("broker.demotions").value >= 1
    demoted = svc.events_of("broker_demoted")
    assert demoted and demoted[0]["source"] == "fence_reject"
    assert demoted[0]["witnessed"] == 99
    assert not svc.broker_alive
    cluster.assert_no_crashes()


def test_rbstat_stats_renders_replication_block(standby_cluster):
    cluster = standby_cluster
    svc = cluster.broker
    install_greedy(cluster)
    svc.submit("n01", ["greedy", "2"], rsl="+(adaptive)")
    cluster.env.run(until=cluster.now + 6.0)
    stat = svc.run_rbstat(host="n01", uid="bob", stats=True)
    cluster.env.run(until=stat.terminated)
    assert stat.exit_code == 0
    report = cluster.machine("n01").fs.read("/home/bob/.rbstat")
    assert "replication: stream=1" in report
    assert "fencing: promotions=0" in report
    assert "double_grants=0" in report


def test_replication_lag_watchdog_flags_a_dark_standby(standby_cluster):
    from repro.obs import HealthMonitor

    cluster = standby_cluster
    svc = cluster.broker
    install_greedy(cluster)
    monitor = HealthMonitor(svc)
    monitor.check_interval = 1.0
    monitor.replication_lag = 64
    monitor.start()
    svc.submit("n01", ["greedy", "2"], rsl="+(adaptive)")
    cluster.env.run(until=cluster.now + 5.0)
    assert monitor.replication_lag_events == 0

    # Blackhole the ship link (without killing anyone): flushed stream
    # characters pile up unacked past the threshold.
    faults = install(cluster.network)
    faults.add_link_block("n00", STANDBY, 12.0)
    cluster.network.sever(faults.partitioned)
    cluster.env.run(until=cluster.now + 10.0)

    assert monitor.replication_lag_events >= 1
    assert monitor.max_replication_lag > 64
    assert svc.metrics.counter("health.replication_lag").value >= 1
    report = monitor.report()
    assert report.to_dict()["replication_lag_events"] >= 1
    assert "replication lag:" in report.render()
