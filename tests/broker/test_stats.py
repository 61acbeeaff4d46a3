"""The live introspection surface: ``stats`` RPC, ``rbstat --stats``, ``rbtop``."""

import re

from repro.broker import protocol
from repro.cluster import ports
from tests.broker.conftest import install_greedy


def _poll_stats(cluster, host="n01"):
    """Fetch one ``stats`` snapshot over the wire, as a raw protocol peer."""
    replies = []

    @cluster.system_bin.register("statpoll")
    def statpoll(proc):
        conn = yield proc.connect("n00", ports.BROKER)
        conn.send(protocol.stats_request())
        reply = yield conn.recv()
        conn.close()
        replies.append(reply)
        return 0

    proc = cluster.run_command(host, ["statpoll"], uid="op")
    cluster.env.run(until=proc.terminated)
    assert proc.exit_code == 0
    return replies[0]


def test_stats_rpc_round_trip(cluster4):
    reply = _poll_stats(cluster4)
    assert reply["type"] == "stats_reply"
    stats = reply["stats"]
    assert stats["epoch"] == 1
    assert stats["machines"] == 4
    assert stats["machines_reported"] == 4
    assert stats["pending"] == 0
    assert stats["jobs"] == 0
    # The self-metering block is always present, even on an idle broker.
    assert stats["obs"]["tracer"]["sample"] == 1.0
    assert stats["obs"]["metrics"]["mode"] == "exact"
    # Stamped when the broker served it: just before the poller exited.
    assert 0.0 < stats["time"] <= cluster4.now


def test_stats_reflect_broker_activity(cluster4):
    svc = cluster4.broker
    install_greedy(cluster4)
    svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)", uid="alice")
    cluster4.env.run(until=cluster4.now + 10.0)
    stats = _poll_stats(cluster4)["stats"]
    assert stats["jobs"] == 1
    assert stats["grants"] >= 2
    assert stats["leased"] >= 2
    assert stats["grant_rate"] > 0.0
    assert stats["scans_per_grant"] > 0.0
    # The online phase digests saw the decisions as they happened.
    assert stats["phases"]["decision"]["count"] >= 2
    assert stats["metrics"]["broker.grants"]["value"] >= 2
    # Serving the snapshot itself never perturbs the run.
    again = _poll_stats(cluster4)["stats"]
    assert again["grants"] == stats["grants"]


def test_rbstat_stats_writes_telemetry_report(cluster4):
    svc = cluster4.broker
    install_greedy(cluster4)
    svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)", uid="alice")
    cluster4.env.run(until=cluster4.now + 5.0)
    stat = svc.run_rbstat(host="n01", uid="bob", stats=True)
    cluster4.env.run(until=stat.terminated)
    assert stat.exit_code == 0
    report = cluster4.machine("n01").fs.read("/home/bob/.rbstat")
    assert "== broker stats @ t=" in report
    assert "== phases ==" in report
    assert "== obs ==" in report
    assert "tracer: sample=1" in report
    assert "mode=exact" in report
    assert "broker.grants" in report


def test_stats_rpc_exposes_kernel_block(cluster4):
    cluster4.env.run(until=cluster4.now + 30.0)
    kernel = _poll_stats(cluster4)["stats"]["kernel"]
    heap = cluster4.env.heap_stats()
    assert set(kernel) == {"events_processed", "heap_high_water"}
    assert 0 < kernel["events_processed"] <= heap["processed"]
    assert 0 < kernel["heap_high_water"] <= heap["heap_high_water"]
    stat = cluster4.broker.run_rbstat(host="n01", uid="bob", stats=True)
    cluster4.env.run(until=stat.terminated)
    report = cluster4.machine("n01").fs.read("/home/bob/.rbstat")
    (line,) = [ln for ln in report.splitlines() if ln.startswith("kernel:")]
    match = re.fullmatch(r"kernel: events=(\d+) heap hwm=(\d+)", line)
    # Served a few events after the raw poll, on the same heap.
    assert int(match.group(1)) > kernel["events_processed"]
    assert int(match.group(2)) >= kernel["heap_high_water"]


def test_rbstat_honours_stat_file_override(cluster4):
    stat = cluster4.run_command(
        "n01",
        ["rbstat", "--stats"],
        uid="bob",
        environ={"RB_BROKER_HOST": "n00", "RB_STAT_FILE": "/tmp/stats.txt"},
    )
    cluster4.env.run(until=stat.terminated)
    assert stat.exit_code == 0
    report = cluster4.machine("n01").fs.read("/tmp/stats.txt")
    assert "== broker stats @ t=" in report
    assert not cluster4.machine("n01").fs.exists("/home/bob/.rbstat")


def test_rbtop_polls_the_live_broker(cluster4):
    svc = cluster4.broker
    install_greedy(cluster4)
    svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)", uid="alice")
    started = cluster4.now
    top = svc.run_rbtop(host="n01", uid="bob", polls=3, interval=2.0)
    cluster4.env.run(until=top.terminated)
    assert top.exit_code == 0
    # Three polls, two sleeps between them.
    assert cluster4.now >= started + 4.0
    report = cluster4.machine("n01").fs.read("/home/bob/.rbtop")
    assert "== broker stats @ t=" in report
    # The file holds the *latest* refresh, stamped at the final poll (after
    # both inter-poll sleeps), not the first one.
    stamp = float(report.split("t=", 1)[1].split("s", 1)[0])
    assert stamp >= started + 4.0


def test_rbtop_ambient_fallback_without_a_broker(cluster4):
    svc = cluster4.broker
    install_greedy(cluster4)
    svc.submit("n00", ["greedy", "1"], rsl="+(adaptive)", uid="alice")
    cluster4.env.run(until=cluster4.now + 5.0)
    top = cluster4.run_command(
        "n02", ["rbtop"], uid="bob", environ={"RB_TOP_FILE": "/tmp/top.txt"}
    )
    cluster4.env.run(until=top.terminated)
    assert top.exit_code == 0
    dump = cluster4.machine("n02").fs.read("/tmp/top.txt")
    assert "broker.grants" in dump


def test_rbtop_reports_an_unreachable_broker(cluster4):
    top = cluster4.run_command(
        "n01", ["rbtop"], uid="bob", environ={"RB_BROKER_HOST": "n03"}
    )
    cluster4.env.run(until=top.terminated)
    assert top.exit_code == 1
    report = cluster4.machine("n01").fs.read("/home/bob/.rbtop")
    assert report == "error: broker unreachable\n"


# -- durability surface ------------------------------------------------------


def _journaled_cluster():
    from repro.cluster import Cluster, ClusterSpec

    cluster = Cluster(ClusterSpec.uniform(4))
    svc = cluster.start_broker(journal=True)
    svc.wait_ready()
    return cluster, svc


def test_stats_carry_journal_and_recovery_blocks():
    cluster, svc = _journaled_cluster()
    cluster.env.run(until=10.0)
    stats = _poll_stats(cluster)["stats"]
    journal = stats["journal"]
    assert journal["enabled"] is True
    assert journal["records"] > 0
    assert journal["flushes"] > 0
    assert stats["recovery"]["from_journal"] == 0.0

    svc.crash_broker()
    cluster.env.run(until=cluster.now + 2.0)
    svc.restart_broker()
    svc.wait_ready()
    cluster.env.run(until=cluster.now + 10.0)
    stats = _poll_stats(cluster)["stats"]
    assert stats["recovery"]["from_journal"] == 1.0
    assert stats["recovery"]["replayed_records"] > 0
    # Reading the recovery block must not mint absent instruments: the
    # re-registration path was never taken, so its counter never existed.
    assert stats["recovery"]["from_reregistration"] == 0.0
    assert "recovery.from_reregistration" not in svc.metrics._metrics


def test_unjournaled_stats_mark_the_journal_disabled(cluster4):
    stats = _poll_stats(cluster4)["stats"]
    assert stats["journal"] == {"enabled": False}


def test_rbstat_stats_renders_journal_and_recovery_lines():
    cluster, svc = _journaled_cluster()
    cluster.env.run(until=10.0)
    svc.crash_broker()
    cluster.env.run(until=cluster.now + 2.0)
    svc.restart_broker()
    svc.wait_ready()
    cluster.env.run(until=cluster.now + 10.0)
    stat = svc.run_rbstat(host="n01", uid="bob", stats=True)
    cluster.env.run(until=stat.terminated)
    assert stat.exit_code == 0
    report = cluster.machine("n01").fs.read("/home/bob/.rbstat")
    assert "journal: gen=" in report
    assert "recovery: journal=1" in report
