"""``pvmd`` — PVM's dialect of the shared virtual-machine daemon.

The master/slave daemon itself is :mod:`repro.systems.vmd`.  What stays PVM's
own is what an observer can see: the program ``pvmd`` and its slave form
``pvmd -slave <master_host> <master_port>``, the home files ``~/.pvmd`` (the
simulated analogue of ``/tmp/pvmd.<uid>``), ``~/.pvm_hosts`` and
``~/.pvmd.lock``, the ``pvmd_slave_startup`` calibration, the
``pvm.add_host`` span, the ``pvm.slaves_fenced`` counter and
:class:`PvmError`.
"""

from __future__ import annotations

from repro.systems.vmd import Dialect, daemon_main


class PvmError(Exception):
    """No master daemon, protocol failure, or command error."""


PVM = Dialect(
    daemon="pvmd",
    slave_flag="-slave",
    advert="~/.pvmd",
    members="~/.pvm_hosts",
    lock="~/.pvmd.lock",
    slave_startup="pvmd_slave_startup",
    add_span="pvm.add_host",
    fenced="pvm.slaves_fenced",
    error=PvmError,
)


def pvmd_main(proc):
    """Program body: master mode, or ``pvmd -slave <master> <port>``."""
    return (yield from daemon_main(proc, PVM))
