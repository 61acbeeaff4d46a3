"""``lamd`` — LAM's dialect of the shared virtual-machine daemon.

The origin/remote daemon itself is :mod:`repro.systems.vmd`.  What stays
LAM's own is what an observer can see: the program ``lamd`` and its remote
form ``lamd -remote <origin> <port>``, the home files ``~/.lamd`` (cf. LAM's
kill file), ``~/.lam_nodes`` and ``~/.lamd.lock``, the heavier
``lamd_slave_startup`` calibration, the ``lam.boot_node`` span, the
``lam.slaves_fenced`` counter and :class:`LamError`.
"""

from __future__ import annotations

from repro.systems.vmd import Dialect, daemon_main


class LamError(Exception):
    """No origin daemon or protocol failure."""


LAM = Dialect(
    daemon="lamd",
    slave_flag="-remote",
    advert="~/.lamd",
    members="~/.lam_nodes",
    lock="~/.lamd.lock",
    slave_startup="lamd_slave_startup",
    add_span="lam.boot_node",
    fenced="lam.slaves_fenced",
    error=LamError,
)


def lamd_main(proc):
    """Program body: origin mode, or ``lamd -remote <origin> <port>``."""
    return (yield from daemon_main(proc, LAM))
