"""The paper's micro-benchmark programs and generic compute jobs.

* ``null`` — "a C program with an empty main() function" (paper §6.1); it
  starts and immediately exits.  Used to measure pure protocol overhead.
* ``loop`` — "a C program with a tight loop"; a fixed CPU burst whose nominal
  duration comes from :class:`~repro.calibration.Calibration.loop_work`.
* ``compute <cpu_seconds>`` — parameterized CPU burst for workload traces.
* ``spin`` — one open-ended CPU burst; killed by revocation tests.
* ``retrywork <cpu_seconds>`` — a fault-tolerant sequential job: runs
  ``compute`` on a brokered machine via ``rsh anylinux`` and simply resubmits
  on failure, the classic retry-until-success wrapper script.  Used by the
  chaos experiment, where granted machines really do crash mid-burst.
"""

from __future__ import annotations

import math

from repro.sim.process import Interrupt


def null_main(proc):
    """Empty main: exit 0 immediately."""
    return 0
    yield  # pragma: no cover - marks this function as a generator


def loop_main(proc):
    """Fixed tight-loop burst (~6.5 nominal seconds on an idle machine)."""
    calibration = proc.machine.network.calibration
    yield proc.compute(calibration.loop_work, tag="loop")
    return 0


def compute_main(proc):
    """``compute <cpu_seconds>``: one CPU burst of the requested size."""
    if len(proc.argv) < 2:
        return 1
    try:
        work = float(proc.argv[1])
    except ValueError:
        return 1
    yield proc.compute(work, tag="compute")
    return 0


def spin_main(proc):
    """CPU hog: one open-ended burst, until a signal kills it."""
    yield proc.compute(math.inf, tag="spin")


def retrywork_main(proc):
    """``retrywork <cpu_seconds>``: brokered compute, retried until done.

    Under the broker the inner ``rsh`` resolves to rsh', so every attempt
    asks for a fresh machine; a crash of the granted machine surfaces as a
    failed rsh, and the wrapper just tries again.
    """
    if len(proc.argv) < 2:
        return 1
    try:
        work = float(proc.argv[1])
    except ValueError:
        return 1
    while True:
        rsh = proc.spawn(["rsh", "anylinux", "compute", f"{work:g}"])
        code = yield proc.wait(rsh)
        if code == 0:
            return 0
        yield proc.sleep(0.5)


def gracespin_main(proc):
    """Adaptive worker: one open-ended burst, graceful SIGTERM shutdown.

    On interruption (revocation) it takes the calibrated adaptive-shutdown
    time before exiting — the dominant term of the paper's ~1 s reallocation
    — still on the CPU until it exits, like a Calypso worker.
    """
    try:
        yield proc.compute(math.inf, tag="gracespin")
    except Interrupt:
        yield proc.sleep(proc.machine.network.calibration.adaptive_shutdown)
        return 0


def greedy_main(proc):
    """``greedy <k>``: adaptive master holding ``k`` remote workers.

    Tries to keep ``k`` ``gracespin`` workers alive via ``rsh anylinux``,
    re-acquiring replacements when they die — the minimal stand-in for an
    adaptive runtime like Calypso.  Never exits on its own.
    """
    want = int(proc.argv[1]) if len(proc.argv) > 1 else 1

    def runner(slot):
        while True:
            child = proc.spawn(["rsh", "anylinux", "gracespin"])
            yield proc.wait(child)

    for slot in range(want):
        proc.thread(runner(slot), name=f"greedy-slot{slot}")
    while True:
        yield proc.sleep(3600.0)


def install_churn(directory) -> None:
    """Register the greedy/gracespin churn pair (idempotent).

    This is the workload behind the scale benchmarks and the sweep runner:
    one greedy master that expands into every idle machine, plus whatever
    sequential arrivals the harness injects to force preemption churn.
    """
    if "gracespin" not in directory:
        directory.register("gracespin", gracespin_main)
        directory.register("greedy", greedy_main)


def install_workloads(directory) -> None:
    """Register the workload programs in a program directory."""
    directory.register("null", null_main)
    directory.register("loop", loop_main)
    directory.register("compute", compute_main)
    directory.register("spin", spin_main)
    directory.register("retrywork", retrywork_main)
