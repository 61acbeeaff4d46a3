"""The ``calypso`` CLI program: one parallel phase over a volatile pool.

``calypso <steps> <cpu_per_step> <workers>`` runs a single parallel phase of
uniform steps — the shape the paper's experiments need (a long-running
adaptive computation soaking up machines).  It is a thin wrapper over the
:class:`~repro.systems.calypso.api.CalypsoRuntime` library, which richer
applications use directly (see ``examples/calypso_application.py``).
"""

from __future__ import annotations

from repro.systems.calypso.api import CalypsoRuntime, UniformSteps


def calypso_master_main(proc):
    """``calypso <steps> <cpu_per_step> <workers>``."""
    if len(proc.argv) < 4:
        return 1
    n_steps = int(proc.argv[1])
    cpu_per_step = float(proc.argv[2])
    target_workers = int(proc.argv[3])
    if n_steps <= 0 or target_workers <= 0:
        return 1

    runtime = CalypsoRuntime(proc, target_workers=target_workers)
    runtime.start()
    yield from runtime.run_phase(UniformSteps(n_steps, cpu_per_step))
    runtime.shutdown()
    return 0
