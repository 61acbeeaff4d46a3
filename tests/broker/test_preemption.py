"""Integration tests: just-in-time *re*allocation (preemption, owner return,
even partition) — the behaviours behind Table 2, Figure 7 and the policy."""

import pytest

from repro.os.signals import SIGKILL
from tests.broker.conftest import install_greedy


def grow_greedy(cluster, k, uid="user"):
    svc = cluster.broker
    install_greedy(cluster)
    handle = svc.submit("n00", ["greedy", str(k)], rsl="+(adaptive)", uid=uid)
    cluster.env.run(until=cluster.now + 6.0)
    return handle


def test_firm_job_preempts_elastic_holder(jcluster4, frees):
    svc = jcluster4.broker
    # The adaptive job soaks every machine except its own home host (n00).
    greedy = grow_greedy(jcluster4, 4)
    gjob = greedy.job_record()
    assert len(svc.holdings()[gjob.jobid]) == 3

    t0 = jcluster4.now
    seq = svc.submit("n00", ["rsh", "anylinux", "null"])
    assert seq.wait() == 0
    elapsed = jcluster4.now - t0
    # Paper Table 2: a reallocation completes in ~1 s, so the whole
    # submission lands near 1.3 s.
    assert 0.9 <= elapsed <= 2.0
    revokes = svc.events_of("revoke")
    assert len(revokes) == 1
    assert revokes[0]["victim"] == gjob.jobid
    # The victim released gracefully: the machine was freed once, its
    # reclaim span ended bare and timed, and handed to the claim.
    host = revokes[0]["host"]
    released = [f for f in frees if f.host == host]
    released[0].assert_clean(outcome=None)
    assert svc.metrics.histogram("broker.reclaim_seconds").count == 1
    assert svc.events_of("grant")[-1]["host"] == host
    jcluster4.assert_no_crashes()


def test_adaptive_job_reacquires_after_preemption(cluster4):
    svc = cluster4.broker
    greedy = grow_greedy(cluster4, 4)
    gjob = greedy.job_record()

    seq = svc.submit("n00", ["rsh", "anylinux", "null"])
    seq.wait()
    # After the sequential job finishes, the adaptive job's queued request
    # gets the machine back.
    cluster4.env.run(until=cluster4.now + 5.0)
    assert len(svc.holdings()[gjob.jobid]) == 3
    # The re-grant came from the queue, not a new submission.
    grants = [e for e in svc.events_of("grant") if e["jobid"] == gjob.jobid]
    assert len(grants) == 4  # 3 initial + 1 re-acquisition


def test_elastic_never_preempts_firm(cluster4):
    svc = cluster4.broker

    @cluster4.system_bin.register("hold")
    def hold(proc):
        yield proc.sleep(3600.0)

    # Rigid jobs (submitted from n03 so n00..n02 are all eligible) occupy
    # every machine the adaptive job could get.
    rigid = [
        svc.submit("n03", ["rsh", "anylinux", "hold"]) for _ in range(3)
    ]
    cluster4.env.run(until=cluster4.now + 4.0)
    assert sum(len(h) for h in svc.holdings().values()) == 3

    greedy = grow_greedy(cluster4, 2)  # submitted from n00; n03 is free but
    gjob = greedy.job_record()         # only n03's *home jobs* hold the rest
    holdings = svc.holdings().get(gjob.jobid, [])
    assert holdings == ["n03"]  # the one idle machine; nothing was stolen
    assert svc.events_of("revoke") == []


def test_even_partition_between_two_elastic_jobs(cluster4):
    svc = cluster4.broker
    first = grow_greedy(cluster4, 4, uid="alice")
    fjob = first.job_record()
    assert len(svc.holdings()[fjob.jobid]) == 3  # n01..n03 (home n00 excluded)

    install_greedy(cluster4)
    second = svc.submit(
        "n01", ["greedy", "4"], rsl="+(adaptive)", uid="bob"
    )
    cluster4.env.run(until=cluster4.now + 30.0)
    sjob = second.job_record()
    holdings = svc.holdings()
    # Paper: "ResourceBroker tries to evenly partition machines among jobs."
    # Second job takes the idle n00, then steals exactly one machine to even
    # the split at 2/2.
    assert len(holdings[fjob.jobid]) == 2
    assert len(holdings[sjob.jobid]) == 2
    cluster4.assert_no_crashes()


def test_owner_return_reclaims_private_machine(mixed_cluster):
    svc = mixed_cluster.broker
    greedy = grow_greedy(mixed_cluster, 4)
    gjob = greedy.job_record()
    holdings = svc.holdings()[gjob.jobid]
    assert set(holdings) >= {"p00", "p01"}  # adaptive job got private machines

    # Ann sits down at her machine.
    mixed_cluster.machine("p00").console_active = True
    mixed_cluster.machine("p00").logged_in.add("ann")
    mixed_cluster.env.run(until=mixed_cluster.now + 6.0)

    holdings = svc.holdings()[gjob.jobid]
    assert "p00" not in holdings
    reclaims = svc.events_of("owner_reclaim")
    assert reclaims and reclaims[0]["host"] == "p00"
    # While Ann is active the machine is not re-allocated to anyone.
    assert svc.state.machine("p00").allocation is None


def test_private_machines_denied_to_non_adaptive_jobs(mixed_cluster):
    svc = mixed_cluster.broker

    @mixed_cluster.system_bin.register("hold")
    def hold(proc):
        yield proc.sleep(3600.0)

    # Occupy the two public machines with rigid jobs (from different homes
    # so both n00 and n01 are eligible targets).
    svc.submit("n00", ["rsh", "anylinux", "hold"])
    svc.submit("n01", ["rsh", "anylinux", "hold"])
    mixed_cluster.env.run(until=mixed_cluster.now + 4.0)
    assert sum(len(h) for h in svc.holdings().values()) == 2
    # A third rigid job must wait even though p00/p01 are idle.
    svc.submit("n00", ["rsh", "anylinux", "hold"])
    mixed_cluster.env.run(until=mixed_cluster.now + 5.0)
    for host in ("p00", "p01"):
        assert svc.state.machine(host).allocation is None
    assert len(svc.state.pending) == 1


def test_symbolic_platform_constraint_respected(cluster4):
    """anysolaris can never match the all-Linux cluster: the request is
    denied outright and the job's rsh fails like a bad host name would."""
    svc = cluster4.broker
    handle = svc.submit("n00", ["rsh", "anysolaris", "null"])
    assert handle.wait() == 1
    assert svc.events_of("grant") == []
    assert len(svc.events_of("denied")) == 1
    assert svc.state.pending == []


def test_daemon_restarted_after_death(cluster4):
    svc = cluster4.broker
    daemons = [
        p
        for p in cluster4.machine("n02").procs.values()
        if p.argv[0] == "rbdaemon"
    ]
    assert len(daemons) == 1
    daemons[0].signal(SIGKILL)
    cluster4.env.run(until=cluster4.now + 10.0)
    # The broker noticed the EOF and respawned the daemon (paper §3:
    # "restarts them if they fail").
    restarts = svc.events_of("daemon_restart")
    assert restarts and restarts[0]["host"] == "n02"
    daemons = [
        p
        for p in cluster4.machine("n02").procs.values()
        if p.argv[0] == "rbdaemon"
    ]
    assert len(daemons) == 1
    cluster4.assert_no_crashes()


def test_broker_runs_unprivileged(cluster4):
    assert cluster4.broker.broker_proc.uid == "rbroker"
    daemons = [
        p
        for m in cluster4.machines.values()
        for p in m.procs.values()
        if p.argv[0] == "rbdaemon"
    ]
    assert daemons and all(d.uid == "rbroker" for d in daemons)


def test_revocations_serialize_per_victim(cluster4):
    """k simultaneous preemptions of one adaptive job take ~k * 1 s (the
    linearity of Figure 7)."""
    svc = cluster4.broker
    greedy = grow_greedy(cluster4, 4)

    @cluster4.system_bin.register("hold")
    def hold(proc):
        yield proc.sleep(3600.0)

    t0 = cluster4.now
    for _ in range(3):
        svc.submit("n00", ["rsh", "anylinux", "hold"])
    grant_times = []
    deadline = cluster4.now + 60.0
    while len(grant_times) < 3 and cluster4.now < deadline:
        cluster4.env.run(until=cluster4.now + 0.5)
        grant_times = [
            e["time"] - t0
            for e in svc.events_of("grant")
            if e["time"] >= t0
        ]
    grant_times.sort()
    assert len(grant_times) == 3
    gaps = [
        b - a for a, b in zip(grant_times, grant_times[1:])
    ]
    # Roughly one revocation-time apart (serialized), not simultaneous.
    assert all(0.3 <= g <= 2.5 for g in gaps), (grant_times, gaps)
