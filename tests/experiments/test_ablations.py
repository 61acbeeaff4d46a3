"""Ablations of the design choices DESIGN.md calls out.

These are ours, not the paper's: each isolates one mechanism/policy choice
and asserts what it buys, in simulated seconds.

1. **Preemption (default policy) vs FIFO** — what just-in-time
   *re*allocation is worth: turnaround of a sequential job arriving while an
   adaptive job holds the whole cluster.
2. **Default (redirection) path vs module path** — the latency price a
   closed system (PVM) pays over an open one (Calypso) for one acquisition.
3. **Grace-period sweep** — revocation latency when the victim ignores
   SIGTERM: the subapp waits out the grace period before SIGKILL, so
   uncooperative jobs directly slow reallocation.
4. **Daemon report interval sweep** — owner-return revocation latency is
   bounded by the monitoring period; faster reports buy responsiveness at
   the cost of network chatter.
"""

import math

from repro.calibration import Calibration
from repro.cluster import Cluster, ClusterSpec, MachineSpec
from repro.policy import DefaultPolicy, FifoPolicy
from repro.sim.process import Interrupt


def _cluster(n, policy=None, calibration=None, seed=0):
    spec = ClusterSpec.uniform(n, seed=seed)
    if calibration is not None:
        spec.calibration = calibration
    cluster = Cluster(spec)
    cluster.start_broker(policy=policy)
    cluster.broker.wait_ready()
    return cluster


def _turnaround_with_policy(policy):
    """Sequential-job turnaround while a finite Calypso job holds all
    machines (48 steps x 5s over 3 workers ~ 80 s of remaining work)."""
    cluster = _cluster(4, policy=policy)
    svc = cluster.broker
    svc.submit("n00", ["calypso", "48", "5.0", "3"], rsl="+(adaptive)")
    cluster.env.run(until=cluster.now + 5.0)
    t0 = cluster.now
    seq = svc.submit("n00", ["rsh", "anylinux", "null"])
    cluster.env.run(until=seq.proc.terminated)
    return cluster.now - t0


def test_ablation_policy_preemption():
    default = _turnaround_with_policy(DefaultPolicy())
    fifo = _turnaround_with_policy(FifoPolicy())
    # The default policy reallocates in ~1.6 s; FIFO waits for the adaptive
    # job to shrink naturally (tens of seconds).
    assert default < 2.5
    assert fifo > 4 * default


def _default_path_acquisition():
    """Calypso acquires one broker-chosen worker: seconds to the grant."""
    cluster = _cluster(3)
    svc = cluster.broker
    t0 = cluster.now
    svc.submit("n00", ["calypso", "10000", "60.0", "1"], rsl="+(adaptive)")
    while not svc.events_of("grant"):
        cluster.env.run(until=cluster.now + 0.25)
    return svc.events_of("grant")[0]["time"] - t0


def _module_path_acquisition():
    """PVM acquires one broker-chosen host: seconds for the grant plus the
    whole phase-II grow until the slave daemon joins."""
    cluster = _cluster(3)
    svc = cluster.broker
    svc.submit("n00", ["pvm"], rsl='+(module="pvm")', uid="pat")
    cluster.env.run(until=cluster.now + 3.0)
    t0 = cluster.now
    add = cluster.run_command("n00", ["pvm", "add", "anylinux"], uid="pat")
    cluster.env.run(until=add.terminated)
    fs = cluster.machine("n00").fs
    while (
        not fs.exists("/home/pat/.pvm_hosts")
        or len(fs.read_lines("/home/pat/.pvm_hosts")) < 2
    ):
        cluster.env.run(until=cluster.now + 0.25)
    return cluster.now - t0


def test_ablation_module_vs_default_path():
    # Interpreting low-level actions (default) is much cheaper than
    # coercing a closed system through its console (module).
    assert _module_path_acquisition() > _default_path_acquisition() + 1.0


def _turnaround_with_grace(grace):
    """Sequential-job turnaround when the job holding every worker ignores
    SIGTERM, under a ``grace``-second SIGTERM grace period."""
    cluster = _cluster(3, calibration=Calibration(sigterm_grace=grace), seed=1)
    svc = cluster.broker

    @cluster.system_bin.register("stubborn")
    def stubborn(proc):
        burst = proc.compute(math.inf)
        while True:
            try:
                yield burst  # the same burst: load stays 1
            except Interrupt:
                pass  # ignores SIGTERM; only SIGKILL removes it

    # An "adaptive" job whose workers in fact ignore revocation.  Two slots
    # so every non-home machine is held and the arriving sequential job
    # must force an eviction.
    @cluster.system_bin.register("sloppy")
    def sloppy(proc):
        def slot():
            while True:
                child = proc.spawn(["rsh", "anylinux", "stubborn"])
                yield proc.wait(child)

        proc.thread(slot(), name="slot0")
        proc.thread(slot(), name="slot1")
        while True:
            yield proc.sleep(3600.0)

    svc.submit("n00", ["sloppy"], rsl="+(adaptive)")
    cluster.env.run(until=cluster.now + 4.0)
    t0 = cluster.now
    seq = svc.submit("n00", ["rsh", "anylinux", "null"])
    cluster.env.run(until=seq.proc.terminated)
    return cluster.now - t0


def test_ablation_grace_period():
    result = {grace: _turnaround_with_grace(grace) for grace in (0.5, 2.0, 5.0)}
    # Latency tracks the grace period almost 1:1.
    assert result[5.0] - result[0.5] > 3.5
    assert result[2.0] - result[0.5] > 1.0


def _owner_return_latency(interval):
    """Seconds from the owner's return to a clear private machine, with
    daemons reporting every ``interval`` seconds."""
    spec = ClusterSpec(
        machines=[
            MachineSpec(name="n00"),
            MachineSpec(name="n01"),
            MachineSpec(name="p00", private_owner="ann"),
        ],
        calibration=Calibration(daemon_report_interval=interval),
    )
    cluster = Cluster(spec)
    svc = cluster.start_broker()
    svc.wait_ready()
    svc.submit("n00", ["calypso", "10000", "60.0", "2"], rsl="+(adaptive)")
    deadline = cluster.now + 30.0
    while cluster.now < deadline:
        cluster.env.run(until=cluster.now + 0.5)
        if svc.state.machine("p00").allocation is not None:
            break
    assert svc.state.machine("p00").allocation is not None
    # The owner returns; measure until the machine is clear.
    t0 = cluster.now
    cluster.machine("p00").console_active = True
    while svc.state.machine("p00").allocation is not None:
        cluster.env.run(until=cluster.now + 0.1)
    return cluster.now - t0


def test_ablation_daemon_interval():
    result = {interval: _owner_return_latency(interval) for interval in (0.5, 2.0, 8.0)}
    # Latency is bounded by (and grows with) the monitoring period.
    assert result[0.5] < result[8.0]
    assert result[8.0] <= 8.0 + 2.5
