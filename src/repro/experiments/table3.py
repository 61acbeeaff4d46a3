"""Table 3 — dynamically adding resources to PVM and LAM (paper §6.2).

For each system and each virtual-machine size k ∈ {1,2,3,4}, measure the
elapsed time from issuing the grow command until the virtual machine
actually contains k additional hosts, under three regimes:

* ``w/ rsh``      — no ResourceBroker at all, explicit host names;
* ``w/ host``     — under ResourceBroker, explicit host names (rsh' sees
  real names and passes them through: "less than 0.3 milliseconds of
  overhead per machine");
* ``w/ anylinux`` — under ResourceBroker, symbolic names via the external
  modules ("approximately 1.2 seconds overhead for PVM and 1.4 seconds for
  LAM programs ... once per machine, and only at startup").

Membership is observed through the daemons' status files, which is what
makes the asynchronous (module) growth measurable.
"""

from __future__ import annotations

from typing import List

from repro.experiments._paper import paper_cluster, record
from repro.experiments.results import ExperimentTable

_SIZES = [1, 2, 3, 4]


def _membership(cluster, status_file: str, uid: str) -> int:
    fs = cluster.machine("n00").fs
    path = f"/home/{uid}/{status_file}"
    if not fs.exists(path):
        return 0
    return len(fs.read_lines(path))


def _wait_membership(cluster, status_file: str, uid: str, want: int) -> None:
    deadline = cluster.now + 120.0
    while cluster.now < deadline:
        if _membership(cluster, status_file, uid) >= want:
            return
        cluster.env.run(until=cluster.now + 0.05)
    raise AssertionError(
        f"virtual machine never reached {want} members "
        f"({_membership(cluster, status_file, uid)} present)"
    )


# -- PVM --------------------------------------------------------------


def _pvm_boot_plain(cluster, uid="user"):
    boot = cluster.run_command("n00", ["pvm", "conf"], uid=uid)
    cluster.env.run(until=boot.terminated)


def _pvm_boot_brokered(cluster, uid="user"):
    cluster.broker.submit("n00", ["pvm"], rsl='+(module="pvm")', uid=uid)
    cluster.env.run(until=cluster.now + 3.0)


def _pvm_measure(cluster, hosts: List[str], uid="user") -> float:
    want = 1 + len(hosts) + _membership(cluster, ".pvm_hosts", uid) - 1
    t0 = cluster.now
    add = cluster.run_command("n00", ["pvm", "add", *hosts], uid=uid)
    cluster.env.run(until=add.terminated)
    _wait_membership(cluster, ".pvm_hosts", uid, want)
    return cluster.now - t0


# -- LAM --------------------------------------------------------------


def _lam_boot_plain(cluster, uid="user"):
    boot = cluster.run_command("n00", ["lamboot"], uid=uid)
    cluster.env.run(until=boot.terminated)


def _lam_boot_brokered(cluster, uid="user"):
    cluster.broker.submit("n00", ["lam"], rsl='+(module="lam")', uid=uid)
    cluster.env.run(until=cluster.now + 3.0)


def _lam_measure(cluster, hosts: List[str], uid="user") -> float:
    """Explicit names grow via one ``lamboot h1..hk`` (a single tool run,
    as a user would); symbolic names go through ``lamgrow anylinux`` per
    host, which is also what the lam_grow module script invokes."""
    want = 1 + len(hosts)
    t0 = cluster.now
    if any(h.startswith("any") for h in hosts):
        for host in hosts:
            grow = cluster.run_command("n00", ["lamgrow", host], uid=uid)
            cluster.env.run(until=grow.terminated)
    else:
        boot = cluster.run_command("n00", ["lamboot", *hosts], uid=uid)
        cluster.env.run(until=boot.terminated)
    _wait_membership(cluster, ".lam_nodes", uid, want)
    return cluster.now - t0


# -- one row -----------------------------------------------------------


def _row(label, boot_plain, boot_brokered, measure, seed: int, mode: str,
         trace=None) -> List[float]:
    """Row ``<label> w/ <mode>``: per size k, a fresh cluster booted the
    way ``mode`` needs, then ``measure`` of growing it by k hosts."""
    times = []
    for k in _SIZES:
        with paper_cluster(6, seed, broker=mode != "rsh") as cluster:
            if mode == "rsh":
                boot_plain(cluster)
            else:
                boot_brokered(cluster)
            if mode == "anylinux":
                hosts = ["anylinux"] * k
            else:
                hosts = [f"n{i:02d}" for i in range(1, k + 1)]
            times.append(measure(cluster, hosts))
            record(cluster, f"{label} w/ {mode} k={k}", trace)
    return times


_SYSTEMS = {
    "pvm": (_pvm_boot_plain, _pvm_boot_brokered, _pvm_measure),
    "lam": (_lam_boot_plain, _lam_boot_brokered, _lam_measure),
}


def run_table3(seed: int = 0, trace=None) -> ExperimentTable:
    """Regenerate Table 3.

    ``trace`` may be a :class:`repro.obs.TraceCollector`; every per-size
    cluster is then captured as its own labelled trace group.
    """
    table = ExperimentTable(
        title=(
            "Table 3: Time to dynamically add resources to PVM and LAM "
            "programs (seconds)"
        ),
        columns=["Operation"] + [f"{k} machine(s)" for k in _SIZES],
    )
    for label, system in _SYSTEMS.items():
        rsh, host, anylinux = (
            _row(label, *system, seed, mode, trace)
            for mode in ("rsh", "host", "anylinux")
        )
        table.add(f"{label} w/ rsh", *rsh)
        table.add(f"{label} w/ host", *host)
        table.add(f"{label} w/ anylinux", *anylinux)
        table.meta[f"{label}_host_overhead_per_machine"] = [
            (h - r) / k for h, r, k in zip(host, rsh, _SIZES)
        ]
        table.meta[f"{label}_anylinux_overhead_per_machine"] = [
            (a - h) / k for a, h, k in zip(anylinux, host, _SIZES)
        ]
    table.notes.append(
        "paper: explicit names add <0.3 ms/machine; anylinux adds ~1.2 s "
        "(PVM) / ~1.4 s (LAM) per machine, once, at startup"
    )
    return table
