"""Workload programs and arrival generators used by the experiments."""

from repro.workloads.programs import (
    compute_main,
    gracespin_main,
    greedy_main,
    install_churn,
    install_workloads,
    loop_main,
    null_main,
    spin_main,
)
from repro.workloads.arrivals import (
    diurnal_owner_windows,
    diurnal_rate,
    periodic_sequential_jobs,
    replay_owner_windows,
    trace_arrivals,
)

__all__ = [
    "compute_main",
    "diurnal_owner_windows",
    "diurnal_rate",
    "gracespin_main",
    "greedy_main",
    "install_churn",
    "install_workloads",
    "loop_main",
    "null_main",
    "periodic_sequential_jobs",
    "replay_owner_windows",
    "spin_main",
    "trace_arrivals",
]
