"""Table 1 — micro-benchmarks of rsh' (paper §6.1).

Setting: two idle machines (the paper's n00, n01); commands issued on n00,
executed on n01.  ``null`` is an empty program; ``loop`` a ~6.5 s CPU burst.
``rsh`` rows use the plain remote shell on an unmanaged cluster; ``rsh'``
rows submit through ResourceBroker (an app process + the interposed rsh).
With ``anylinux`` "the available set of machines was limited to n01, so in
fact n01 was always chosen" — reproduced here by the home-host exclusion.

Paper's reported numbers: null ≈ 0.3 s (rsh) vs ≈ 0.6 s (rsh', both forms);
loop ≈ rsh-cost + 6.5 s in every row; rsh' overhead ≈ 0.3 s total.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.results import ExperimentTable


@contextmanager
def _fresh_cluster(seed: int, broker: bool) -> Iterator[Cluster]:
    with Cluster(ClusterSpec.uniform(2, seed=seed)) as cluster:
        if broker:
            cluster.start_broker()
            cluster.broker.wait_ready()
        yield cluster


def _measure_plain(seed: int, program: str, trace=None) -> float:
    with _fresh_cluster(seed, broker=False) as cluster:
        t0 = cluster.now
        proc = cluster.run_command("n00", ["rsh", "n01", program])
        cluster.env.run(until=proc.terminated)
        assert proc.exit_code == 0, f"rsh n01 {program} failed"
        cluster.assert_no_crashes()
        if trace is not None:
            trace.add_cluster(cluster, label=f"rsh n01 {program}")
        return cluster.now - t0


def _measure_brokered(seed: int, target: str, program: str, trace=None) -> float:
    with _fresh_cluster(seed, broker=True) as cluster:
        svc = cluster.broker
        t0 = cluster.now
        handle = svc.submit("n00", ["rsh", target, program])
        code = handle.wait()
        assert code == 0, f"rsh' {target} {program} failed"
        cluster.assert_no_crashes()
        if trace is not None:
            trace.add_cluster(cluster, label=f"rsh' {target} {program}")
        return cluster.now - t0


def run_table1(seed: int = 0, trace=None) -> ExperimentTable:
    """Regenerate Table 1.

    ``trace`` may be a :class:`repro.obs.TraceCollector`; each measurement's
    cluster is then captured as its own labelled trace group.
    """
    table = ExperimentTable(
        title="Table 1: Performance of rsh' (seconds)",
        columns=["Operation", "Time (s)"],
    )
    table.add("rsh n01 null", _measure_plain(seed, "null", trace))
    table.add("rsh' n01 null", _measure_brokered(seed, "n01", "null", trace))
    table.add(
        "rsh' anylinux null", _measure_brokered(seed, "anylinux", "null", trace)
    )
    table.add("rsh n01 loop", _measure_plain(seed, "loop", trace))
    table.add("rsh' n01 loop", _measure_brokered(seed, "n01", "loop", trace))
    table.add(
        "rsh' anylinux loop", _measure_brokered(seed, "anylinux", "loop", trace)
    )
    table.notes.append(
        "paper: null 0.3 / 0.6 / 0.6; loop = null + ~6.5 in each row"
    )
    table.meta["rshp_overhead_null"] = (
        table.value("rsh' n01 null") - table.value("rsh n01 null")
    )
    return table


if __name__ == "__main__":  # pragma: no cover - manual run
    print(run_table1())
