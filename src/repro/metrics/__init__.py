"""Measurement helpers for the reproduced experiments."""

from repro.metrics.utilization import UtilizationMeter
from repro.metrics.timeline import (
    Interval,
    allocation_intervals,
    machine_busy_fraction,
    render_gantt,
)

__all__ = [
    "Interval",
    "UtilizationMeter",
    "allocation_intervals",
    "machine_busy_fraction",
    "render_gantt",
]
