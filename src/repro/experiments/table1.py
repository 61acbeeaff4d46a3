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

from repro.experiments._paper import paper_cluster, time_rsh, time_submit
from repro.experiments.results import ExperimentTable


def run_table1(seed: int = 0, trace=None) -> ExperimentTable:
    """Regenerate Table 1.

    ``trace`` may be a :class:`repro.obs.TraceCollector`; each measurement's
    cluster is then captured as its own labelled trace group.
    """
    table = ExperimentTable(
        title="Table 1: Performance of rsh' (seconds)",
        columns=["Operation", "Time (s)"],
    )
    for program in ("null", "loop"):
        with paper_cluster(2, seed, broker=False) as cluster:
            table.add(f"rsh n01 {program}", time_rsh(cluster, program, trace))
        for target in ("n01", "anylinux"):
            with paper_cluster(2, seed, broker=True) as cluster:
                seconds = time_submit(cluster, target, program, trace)
            table.add(f"rsh' {target} {program}", seconds)
    table.notes.append(
        "paper: null 0.3 / 0.6 / 0.6; loop = null + ~6.5 in each row"
    )
    table.meta["rshp_overhead_null"] = (
        table.value("rsh' n01 null") - table.value("rsh n01 null")
    )
    return table
