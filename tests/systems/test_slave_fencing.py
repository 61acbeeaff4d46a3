"""Epoch fencing of PVM slave and LAM remote daemons (DESIGN.md §16).

A slave daemon joins its virtual machine under the broker epoch its host
has witnessed.  Once the host witnesses a higher one, the next command the
slave receives makes it drop out: it counts the fence, kills the tasks it
started and leaves the membership.
"""

import pytest

from repro.broker.daemon import witness_epoch
from repro.cluster import Cluster, ClusterSpec

SYSTEMS = {
    "pvm": {
        "join": ["pvm", "add", "n01"],
        "spawn": ["pvm", "spawn", "2", "task"],
        "daemon": "pvmd",
        "members": "/home/user/.pvm_hosts",
        "fenced": "pvm.slaves_fenced",
    },
    "lam": {
        "join": ["lamboot", "n01"],
        "spawn": ["mpirun", "2", "task"],
        "daemon": "lamd",
        "members": "/home/user/.lam_nodes",
        "fenced": "lam.slaves_fenced",
    },
}


def run_cmd(cluster, argv):
    proc = cluster.run_command("n00", argv, uid="user")
    cluster.env.run(until=proc.terminated)
    return proc


def running(cluster, host, program):
    return [
        p for p in cluster.machine(host).procs.values() if p.argv[0] == program
    ]


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_slave_drops_out_when_its_host_witnesses_a_newer_epoch(system):
    spec = SYSTEMS[system]
    cluster = Cluster(ClusterSpec.uniform(3))

    @cluster.system_bin.register("task")
    def task(proc):
        yield proc.sleep(1000.0)

    fenced = cluster.network.metrics.counter(spec["fenced"])
    slave_host = cluster.machine("n01")
    witness_epoch(slave_host, 1)
    assert run_cmd(cluster, spec["join"]).exit_code == 0
    assert len(running(cluster, "n01", spec["daemon"])) == 1
    run_cmd(cluster, spec["spawn"])
    assert len(running(cluster, "n01", "task")) == 1
    assert fenced.value == 0

    witness_epoch(slave_host, 2)
    run_cmd(cluster, spec["spawn"])
    cluster.env.run(until=cluster.now + 1.0)

    assert fenced.value == 1
    assert running(cluster, "n01", spec["daemon"]) == []
    assert running(cluster, "n01", "task") == []
    members = cluster.machine("n00").fs.read_lines(spec["members"])
    assert members == ["n00"]
    # The master host's own tasks are not the slave's to kill.
    assert len(running(cluster, "n00", "task")) == 2
    cluster.assert_no_crashes()
