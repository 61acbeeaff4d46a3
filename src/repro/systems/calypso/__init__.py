"""Calypso-style adaptive parallel runtime.

Calypso (Baratloo, Dasgupta, Kedem 1995) executes a program's *parallel
steps* on a dynamically changing worker pool with **eager scheduling** — a
step may be (re)assigned to several workers, the first completion wins, and
idempotence is guaranteed by a two-phase memoization of results (TIES).  Two
properties matter to this paper:

* adaptivity is provided *by the runtime*: workers may join anonymously and
  may be killed at any time without programmer effort, so Calypso exercises
  ResourceBroker's **default (redirection) path**;
* the runtime grows by calling ``calypso_spawnworker()``, which "ultimately
  results in a rsh command" — our master spawns ``rsh anylinux
  calypso_worker`` exactly so.

Programs:

* ``calypso <steps> <cpu_per_step> <workers>`` — a master running one
  parallel phase of ``steps`` tasks, each ``cpu_per_step`` CPU-seconds,
  keeping up to ``workers`` machines acquired just-in-time.  The phase is
  declared as ``UniformSteps(steps, cpu_per_step)``: a step is made when a
  worker is assigned it, so a million declared steps cost what a ``range``
  costs (``CalypsoRuntime.run_phase`` takes any sized, indexable sequence).
* ``calypso_worker <master_host> <port>`` — joins a master, computes
  assigned steps, shuts down gracefully on SIGTERM.
"""

from repro.systems.calypso.api import CalypsoRuntime, ParallelStep, UniformSteps
from repro.systems.calypso.master import calypso_master_main
from repro.systems.calypso.worker import calypso_worker_main

__all__ = [
    "CalypsoRuntime",
    "ParallelStep",
    "UniformSteps",
    "calypso_master_main",
    "calypso_worker_main",
    "install_calypso",
]


def install_calypso(directory) -> None:
    """Register the Calypso programs in ``directory``."""
    directory.register("calypso", calypso_master_main)
    directory.register("calypso_worker", calypso_worker_main)
