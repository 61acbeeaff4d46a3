"""Experiment harnesses regenerating every table and figure of the paper.

Each module exposes a ``run_*`` function returning a structured result with
the same rows/series the paper reports, plus ``main()``-style formatting
helpers used by the benchmark suite and the examples.

================  =========================================================
module            paper artefact
================  =========================================================
table1            Table 1 — rsh vs rsh' micro-benchmarks
table2            Table 2 — reallocation performance (taking a machine from
                  a running Calypso job)
table3            Table 3 — dynamically adding resources to PVM and LAM
fig7              Figure 7 — reallocation time vs number of machines
utilization       §6.2 closing experiment — five-hour utilization run
================  =========================================================

``chaos`` is not a paper artefact: it is the robustness capstone — a mixed
workload surviving a seeded schedule of crashes, partitions and lost
heartbeats (see :mod:`repro.experiments.chaos`).  ``soak`` is its
service-mode sibling: the durable (journaled) broker under a large diurnal
arrival trace with mid-run crash/restarts, gated on drain, flat memory and
a bounded journal (see :mod:`repro.experiments.soak`).
"""

from repro.experiments.results import ExperimentTable, Row, format_table
from repro.experiments.sweep import (
    canonical_json,
    format_sweep,
    merge_results,
    run_cell,
    run_sweep,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.fig7 import run_fig7
from repro.experiments.utilization import run_utilization
from repro.experiments.chaos import run_chaos
from repro.experiments.soak import SoakReport, run_soak

__all__ = [
    "SoakReport",
    "ExperimentTable",
    "Row",
    "canonical_json",
    "format_sweep",
    "format_table",
    "merge_results",
    "run_cell",
    "run_chaos",
    "run_fig7",
    "run_soak",
    "run_sweep",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_utilization",
]
