"""Parallel programming system substrates.

Each subpackage models one of the commodity systems the paper manages
*unmodified*:

* :mod:`repro.systems.pvm` — PVM-style virtual machine (console,
  ``pvm_addhosts``); its master daemon **rejects** slave daemons from hosts
  it did not ask for, which is what forces the broker's external-module path.
* :mod:`repro.systems.lam` — LAM/MPI-style runtime (``lamboot``/``lamgrow``);
  also rejects unexpected hosts, with heavier per-host startup.
* :mod:`repro.systems.vmd` — the one master/slave daemon both of them run,
  each as a dialect.
* :mod:`repro.systems.calypso` — adaptive master/worker runtime with eager
  scheduling; workers join anonymously and may be killed at any time, so it
  exercises the broker's *default* (redirection) path.
* :mod:`repro.systems.plinda` — persistent-Linda tuple space with
  transactional takes and bag-of-tasks workers; the second default-path user.

All register their executables through :func:`install_all_systems`, called by
the cluster builder for every machine's system directory.
"""

from __future__ import annotations


def install_all_systems(directory) -> None:
    """Register every parallel system's programs in ``directory``."""
    from repro.systems.calypso import install_calypso
    from repro.systems.lam import install_lam
    from repro.systems.plinda import install_plinda
    from repro.systems.pvm import install_pvm
    from repro.systems.taskfarm import install_taskfarm

    install_pvm(directory)
    install_lam(directory)
    install_calypso(directory)
    install_plinda(directory)
    install_taskfarm(directory)
