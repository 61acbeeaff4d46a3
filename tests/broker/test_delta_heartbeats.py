"""Delta heartbeats: daemons ship full snapshots only when something moved.

The monitoring daemon keeps its report *cadence* (one message per
``daemon_report_interval``, so liveness detection and event counts are
untouched) but sends a compact beacon whenever its change probe — cpu
load, process-table version, console state, login count — is unchanged
since the last full snapshot.  Every ``daemon_full_report_every``-th
report is forced full so a broker whose record went stale through lost
messages re-syncs within a bounded window.
"""

import json
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import protocol
from repro.broker.daemon import ReportSizer, leased_jobids
from repro.cluster import Cluster, ClusterSpec
from repro.faults import netfaults
from repro.os.signals import SIGKILL
from tests.broker.conftest import install_greedy
from tests.broker.test_liveness import _rbdaemons


def _counter(cluster, name):
    return cluster.broker.metrics.counter(name).value


def test_steady_cluster_sends_mostly_beacons(cluster4):
    cal = cluster4.network.calibration
    cluster4.env.run(until=cluster4.now + 40.0)
    fulls = _counter(cluster4, "rbdaemon.full_reports")
    beacons = _counter(cluster4, "rbdaemon.beacons")
    reports = _counter(cluster4, "rbdaemon.reports")
    assert reports == fulls + beacons
    assert beacons > fulls  # an idle machine mostly beacons
    # The forced-full cadence holds: at most one full per full_every
    # reports per machine (plus the initial snapshot each).
    machines = len(cluster4.broker.managed_hosts)
    assert fulls <= reports / cal.daemon_full_report_every + machines
    # And the wire savings are real: a beacon is a fraction of a snapshot.
    beacon_bytes = len(json.dumps(protocol.daemon_beacon(0.0)))
    snapshot = cluster4.machine("n01").snapshot()
    full_bytes = len(json.dumps(protocol.daemon_report(snapshot)))
    assert beacon_bytes < full_bytes / 3
    assert _counter(cluster4, "rbdaemon.report_bytes") < reports * full_bytes


def test_console_change_forces_prompt_full_report(cluster4):
    svc = cluster4.broker
    cluster4.env.run(until=cluster4.now + 10.0)
    assert not svc.state.machine("n01").console_active
    fulls = _counter(cluster4, "rbdaemon.full_reports")
    cluster4.machine("n01").console_active = True
    cluster4.machine("n01").logged_in.add("ann")
    # The next report (one interval away at most) must carry the change —
    # a beacon would hide it from owner-priority reclaim.
    cal = cluster4.network.calibration
    cluster4.env.run(until=cluster4.now + cal.daemon_report_interval + 1.0)
    assert svc.state.machine("n01").console_active
    assert _counter(cluster4, "rbdaemon.full_reports") > fulls


def test_lease_renewal_rides_beacons(cluster4):
    """A machine whose holder sits quietly must still renew its lease: the
    beacon renews the lease inventory of the last full report."""
    svc = cluster4.broker
    cal = cluster4.network.calibration

    @cluster4.system_bin.register("hold")
    def hold(proc):
        yield proc.sleep(3600.0)

    handle = svc.submit("n00", ["rsh", "anylinux", "hold"])
    cluster4.env.run(until=cluster4.now + 5.0)
    job = handle.job_record()
    held = svc.holdings()[job.jobid]
    assert len(held) == 1

    cluster4.env.run(until=cluster4.now + 3.0 * cal.lease_ttl)
    assert _counter(cluster4, "rbdaemon.beacons") > 0
    assert svc.holdings()[job.jobid] == held  # never expired mid-run
    assert _counter(cluster4, "leases.expired") == 0
    cluster4.assert_no_crashes()


def test_daemon_restart_resends_full_snapshot(cluster4):
    """A reconnecting daemon must not open with a beacon: the broker reset
    the machine record on connection EOF, so the first report after any
    reconnect is a full snapshot (the daemon forgets its probe too)."""
    svc = cluster4.broker
    cluster4.env.run(until=cluster4.now + 10.0)
    daemons = _rbdaemons(cluster4, "n01")
    assert daemons
    fulls = _counter(cluster4, "rbdaemon.full_reports")
    daemons[0].signal(SIGKILL)
    cluster4.env.run(until=cluster4.now + 6.0)
    record = svc.state.machine("n01")
    assert record.reported and not record.dead
    assert record.platform == "i686linux"  # rebuilt from a fresh snapshot
    assert _counter(cluster4, "rbdaemon.full_reports") > fulls
    assert svc.metrics.counter("broker.daemon_restarts").value >= 1


def test_grant_and_release_bump_the_change_probe(cluster4):
    """Allocation activity always breaks a beacon streak: subapp arrival and
    exit bump the machine's process-table version, forcing full reports, so
    the broker's lease inventory can never go stale silently."""
    svc = cluster4.broker
    install_greedy(cluster4)
    cluster4.env.run(until=cluster4.now + 10.0)
    versions = {
        host: cluster4.machine(host).proc_table_version
        for host in svc.managed_hosts
    }
    handle = svc.submit("n00", ["greedy", "2"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)
    job = handle.job_record()
    for host in svc.holdings()[job.jobid]:
        assert cluster4.machine(host).proc_table_version > versions[host]
        # ... and the broker's record carries the lease from the full
        # report that followed.
        assert job.jobid in svc.state.machine(host).leases


# -- full-report sizing --------------------------------------------------------

_TIMES = st.one_of(
    st.sampled_from([0, 0.0, 1e-05, 1e16, 123.45600000000002, 0.1 + 0.2]),
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False),
    st.integers(min_value=0, max_value=10**18),
)

_NAMES = st.text(max_size=12)

_SHAPES = st.tuples(
    st.fixed_dictionaries(
        {
            "host": _NAMES,
            "platform": _NAMES,
            "kind": st.sampled_from(["public", "private"]),
            "owner": st.one_of(st.none(), _NAMES),
            "cpu_load": st.integers(min_value=0, max_value=10**6),
            "n_processes": st.integers(min_value=0, max_value=10**6),
            "logged_in": st.frozensets(_NAMES).map(sorted),
            "console_active": st.booleans(),
        }
    ),
    st.lists(st.integers(min_value=0, max_value=10**9)),
)


@given(
    shapes=st.lists(_SHAPES, min_size=1, max_size=4),
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), _TIMES),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_report_sizer_is_exact(shapes, steps):
    """A report's size is measured once per shape and derived after that;
    the derived size equals the serialised one for every timestamp (ints,
    exponent-form floats, float noise) and every field content, including
    a shape coming back after another one."""
    sizer = ReportSizer()
    for index, time in steps:
        fields, leases = shapes[index % len(shapes)]
        message = protocol.daemon_report(dict(fields, time=time), leases)
        shape = (fields, sorted(leases))
        assert sizer.size(shape, message) == len(json.dumps(message))


# -- the daemon's cached lease inventory -------------------------------------


def test_full_reports_carry_a_fresh_inventory(cluster4, monkeypatch):
    """Every full report's lease list equals a fresh process-table scan at
    send time, through a grant, a revoke, a SIGKILLed subapp and a machine
    crash + boot; and ``rbdaemon.report_bytes`` equals the serialised size
    of every report and beacon sent."""
    svc = cluster4.broker
    install_greedy(cluster4)
    sent = []
    report = protocol.daemon_report
    beacon = protocol.daemon_beacon

    def checked_report(snapshot, leases=None):
        machine = cluster4.machine(snapshot["host"])
        fresh = leased_jobids(SimpleNamespace(machine=machine))
        assert sorted(leases or ()) == fresh, snapshot["host"]
        message = report(snapshot, leases)
        sent.append(message)
        return message

    def recorded_beacon(time):
        message = beacon(time)
        sent.append(message)
        return message

    monkeypatch.setattr(protocol, "daemon_report", checked_report)
    monkeypatch.setattr(protocol, "daemon_beacon", recorded_beacon)
    bytes_before = _counter(cluster4, "rbdaemon.report_bytes")
    beacons_before = _counter(cluster4, "rbdaemon.beacons")

    greedy = svc.submit("n00", ["greedy", "4"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 6.0)
    job = greedy.job_record()
    assert len(svc.holdings()[job.jobid]) == 3  # grants

    assert svc.submit("n00", ["rsh", "anylinux", "null"]).wait() == 0
    assert svc.events_of("revoke")  # the firm job preempted one
    cluster4.env.run(until=cluster4.now + 6.0)

    host = svc.holdings()[job.jobid][0]
    (subapp,) = [
        p
        for p in cluster4.machine(host).procs.values()
        if p.argv[0] == "subapp"
    ]
    subapp.signal(SIGKILL)
    cluster4.env.run(until=cluster4.now + 12.0)

    # A login swap keeps the login count, so only the forced full report
    # carries it: the report's shape changed with its probe unchanged.
    machine = cluster4.machine("n01")
    machine.logged_in.add("ann")
    cluster4.env.run(until=cluster4.now + 12.0)
    machine.logged_in.discard("ann")
    machine.logged_in.add("barbara")
    cluster4.env.run(until=cluster4.now + 12.0)
    assert any(
        m["snapshot"]["logged_in"] == ["barbara"] for m in sent if "snapshot" in m
    )

    host = svc.holdings()[job.jobid][0]
    cluster4.crash_machine(host, reboot_after=5.0)
    cluster4.env.run(until=cluster4.now + 30.0)
    assert svc.events_of("machine_rejoin")

    fulls = [m for m in sent if not m.get("delta")]
    assert any(m["leases"] for m in fulls)
    assert any(not m["leases"] for m in fulls)
    assert _counter(cluster4, "rbdaemon.report_bytes") - bytes_before == sum(
        len(json.dumps(m)) for m in sent
    )
    beacons = [m for m in sent if m.get("delta")]
    assert len(beacons) == _counter(cluster4, "rbdaemon.beacons") - beacons_before
    # Beacon timestamps vary in length, so each is sized, not assumed.
    assert len({len(json.dumps(m)) for m in beacons}) > 1
    cluster4.assert_no_crashes()


# -- the broker's beacon fast path -------------------------------------------


def _filter_daemon_traffic(cluster, drop):
    """Drop every message ``drop(src_host, message)`` selects."""
    faults = netfaults.install(cluster.network)
    faults.should_drop = lambda src, dst, message: drop(src, message)


def _watch_sends(cluster, host, select):
    """The messages from ``host`` that ``select`` picks, as they are sent
    (nothing is dropped)."""
    sent = []

    def drop(src, message):
        if src == host and select(message):
            sent.append(message)
        return False

    _filter_daemon_traffic(cluster, drop)
    return sent


def _is_beacon(message):
    return isinstance(message, dict) and bool(message.get("delta"))


def _is_full_report(message):
    return (
        isinstance(message, dict)
        and message.get("type") == "daemon_report"
        and not message.get("delta")
    )


def test_beacon_starts_owner_reclaim_for_a_later_grant(mixed_cluster):
    """The owner is at the console and the broker knows it; an allocation
    installed after that full report is revoked on the next beacon."""
    svc = mixed_cluster.broker
    install_greedy(mixed_cluster)
    handle = svc.submit("n00", ["greedy", "1"], rsl="+(adaptive)")
    machine = mixed_cluster.machine("p00")
    machine.console_active = True
    machine.logged_in.add("ann")
    mixed_cluster.env.run(until=mixed_cluster.now + 5.0)
    record = svc.state.machine("p00")
    assert record.console_active and record.allocation is None
    job = handle.job_record()

    full_reports = _watch_sends(mixed_cluster, "p00", _is_full_report)
    svc.state.allocate("p00", job.jobid, firm=False, now=mixed_cluster.now)
    granted_at = mixed_cluster.now
    interval = mixed_cluster.network.calibration.daemon_report_interval
    while not svc.events_of("owner_reclaim"):
        assert mixed_cluster.now < granted_at + interval + 1.0
        mixed_cluster.env.step()
    (reclaim,) = svc.events_of("owner_reclaim")
    assert reclaim["host"] == "p00" and reclaim["jobid"] == job.jobid
    assert not full_reports  # a beacon carried it
    mixed_cluster.env.run(until=mixed_cluster.now + 3.0)
    assert svc.state.machine("p00").allocation is None
    mixed_cluster.assert_no_crashes()


def test_beacon_renews_the_lease(cluster4):
    """A beacon for a leased machine pushes the lease one TTL out from its
    arrival, like a full report does."""
    svc = cluster4.broker
    install_greedy(cluster4)
    handle = svc.submit("n00", ["greedy", "1"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)
    (host,) = svc.holdings()[handle.job_record().jobid]
    record = svc.state.machine(host)
    beacons = _watch_sends(cluster4, host, _is_beacon)
    while not beacons or record.last_seen != beacons[0]["time"]:
        assert cluster4.now < 30.0
        cluster4.env.step()
    ttl = cluster4.network.calibration.lease_ttl
    assert record.allocation.lease_expires_at == cluster4.now + ttl


def test_beacon_for_a_dead_record_is_a_rejoin(cluster4):
    """A machine silent past the liveness deadline comes back with a beacon:
    the broker logs the rejoin, counts it and runs a scheduling pass, which
    hands the machine back to the job still waiting for it."""
    svc = cluster4.broker
    install_greedy(cluster4)
    handle = svc.submit("n00", ["greedy", "3"], rsl="+(adaptive)")
    cluster4.env.run(until=cluster4.now + 5.0)
    job = handle.job_record()
    assert "n02" in svc.holdings()[job.jobid]
    record = svc.state.machine("n02")
    passed = []

    def drop(src, message):
        if src != "n02" or not isinstance(message, dict):
            return False
        if message.get("type") != "daemon_report" or passed:
            return False
        if record.dead and _is_beacon(message):
            passed.append(message)
            return False
        return True  # silence, then full reports held back until a beacon

    _filter_daemon_traffic(cluster4, drop)
    while not record.dead:
        cluster4.env.step()
    passes = _counter(cluster4, "broker.sched_passes")
    while not svc.events_of("machine_rejoin"):
        assert cluster4.now < 60.0
        cluster4.env.step()
    assert passed and record.reported and not record.dead
    (rejoin,) = svc.events_of("machine_rejoin")
    assert rejoin["host"] == "n02"
    assert _counter(cluster4, "broker.machine_rejoins") == 1
    cluster4.env.run(until=cluster4.now + 0.5)
    assert _counter(cluster4, "broker.sched_passes") > passes
    regrants = [
        e for e in svc.events_of("grant")
        if e["host"] == "n02" and e["time"] == rejoin["time"]
    ]
    assert [e["jobid"] for e in regrants] == [job.jobid]
    cluster4.assert_no_crashes()


def test_beacon_before_any_full_report_is_ignored():
    """A record that never received a full report has nothing for a beacon
    to renew: the beacon neither makes it reported nor counts it ready."""
    cluster = Cluster(ClusterSpec.uniform(4))
    passed = []

    def drop(src, message):
        if src != "n03" or not isinstance(message, dict):
            return False
        if _is_full_report(message) and not passed:
            return True
        if _is_beacon(message) and not passed:
            passed.append(cluster.now)
        return False

    _filter_daemon_traffic(cluster, drop)
    svc = cluster.start_broker()
    while not passed:
        assert cluster.now < 60.0
        cluster.env.step()
    cluster.env.run(until=passed[0] + 0.5)  # delivered and processed
    record = svc.state.machine("n03")
    assert record.last_seen < 0.0 and not record.reported
    assert not svc.ready.triggered
    svc.wait_ready()  # the next full report brings it in
    assert svc.state.machine("n03").reported
