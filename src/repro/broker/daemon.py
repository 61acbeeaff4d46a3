"""``rbdaemon`` — the per-machine monitoring daemon.

Started on every managed machine by the broker (via plain rsh, with ordinary
user privileges) at broker startup.  It periodically reports the machine's
monitorable state — "the CPU status, the users who are logged on, the number
of running jobs, and the keyboard- and the mouse-status" (paper §3) — over a
persistent connection.  It takes no actions itself: all job control flows
through the application layer, which is what lets the whole resource
management layer run unprivileged.

The reporting is **delta-based** (DESIGN.md §12): a full snapshot + lease
inventory goes out on hello, on any change of the machine's cheap *change
probe* (cpu load, process-table version, console state, login count), and at
least every ``daemon_full_report_every`` cycles; the reports in between are
compact :func:`~repro.broker.protocol.daemon_beacon` messages that renew
liveness and leases without shipping a snapshot.  The probe covers every
field the broker's :meth:`MachineRecord.update` consumes — a lease change
always changes the process table, so a beacon never hides one — and the
message cadence is unchanged, so heartbeat timing (and with it every grant
timeline) is byte-identical to always-full reporting.  What the loop
remembers between reports is derived state, rebuilt from the machine on
demand: the last probe, the lease inventory per process-table version and
the report size per report shape (:class:`ReportSizer`).

Two additions beyond the paper support broker crash recovery:

* every hello/report carries the machine's **lease inventory** — the jobids
  with a live subapp on the host, read straight from the process table (the
  subapp's argv names its job) — which renews the grants' leases and lets a
  restarted broker re-adopt allocations it lost with its state;
* the daemon watches its broker connection for EOF (a send into a dead peer
  is silently dropped on this LAN, so only ``recv`` surfaces loss) and, when
  the connection dies, **re-registers**: it redials forever with capped
  backoff and replays a full-inventory hello.  It never exits on broker
  loss — exiting would deadlock the keeper, which respawns daemons only when
  their connection (not their process) drops.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Optional

from repro.cluster import ports
from repro.cluster.network import EXPIRED
from repro.os.errors import ConnectionClosed, ConnectionRefused, NoSuchHost
from repro.os.retry import connect_with_backoff
from repro.broker import protocol

#: Per-machine fencing token: the highest broker epoch any process on this
#: machine has witnessed, persisted so it survives daemon restarts (it must —
#: a respawned daemon that forgot the epoch would accept a stale ex-primary).
EPOCH_WITNESS_PATH = "/var/rb_epoch"

#: A beacon's wire size less its timestamp: beacons differ only in their
#: timestamp, so a beacon sent at ``t`` is ``BEACON_BASE + stamp_bytes(t)``
#: bytes.
BEACON_BASE = len(json.dumps(protocol.daemon_beacon(0.0))) - len("0.0")


@functools.lru_cache(maxsize=1, typed=True)
def stamp_bytes(time) -> int:
    """The JSON length of a timestamp: JSON writes an int or a finite float
    exactly as ``repr`` does.  Daemons report in phase, so consecutive
    messages share their timestamp and the one cached length serves nearly
    all of them."""
    return len(repr(time))


def witnessed_epoch(machine) -> int:
    """The highest broker epoch this machine has witnessed (0 = none)."""
    if not machine.fs.exists(EPOCH_WITNESS_PATH):
        return 0
    try:
        return int(machine.fs.read(EPOCH_WITNESS_PATH).strip())
    except ValueError:
        return 0


def witness_epoch(machine, epoch: int) -> int:
    """Raise (never lower) the machine's witnessed epoch; returns the new
    witnessed value."""
    current = witnessed_epoch(machine)
    if epoch > current:
        machine.fs.write(EPOCH_WITNESS_PATH, str(int(epoch)))
        return int(epoch)
    return current


def subapp_jobid(proc) -> Optional[int]:
    """The jobid a live subapp serves, or None for any other process.

    Wrapped execs start ``subapp app_host app_port token jobid``, so the
    jobid is the argv's fifth field.  A process table is outside input, so
    a malformed argv reads as no job.
    """
    argv = proc.argv
    if not (len(argv) >= 5 and argv[0] == "subapp" and proc.is_alive):
        return None
    try:
        return int(argv[4])
    except ValueError:
        return None


def leased_jobids(proc):
    """The machine's lease inventory: sorted jobids with a live subapp here.

    The subapp's argv names its job (:func:`subapp_jobid`) precisely so
    this scan needs nothing but the process table — the daemon keeps no
    state of its own to lose.  Its report loop caches the result per
    process-table version, which is derived state: recomputed from the
    table, never the source of truth.  This function itself always scans
    (the invariant oracle and the ``grant_install`` audit read it).
    """
    jobids = set(map(subapp_jobid, proc.machine.running("subapp")))
    jobids.discard(None)
    return sorted(jobids)


class ReportSizer:
    """The wire size of a daemon's full reports, serialised once per shape.

    A report's *shape* is everything in it but the snapshot's timestamp.
    JSON writes an int or a finite float exactly as ``repr`` does, so two
    reports of one shape differ in size only by their timestamps' reprs:
    the first of a shape is measured with ``json.dumps`` and the rest are
    ``base + stamp_bytes(time)``.  The caller names the shape with any
    ``==``-comparable key other than None that changes whenever anything
    but the timestamp does.
    """

    __slots__ = ("_shape", "_base")

    def __init__(self) -> None:
        self._shape = None
        self._base = 0

    def size(self, shape, message) -> int:
        """``len(json.dumps(message))`` for a :func:`protocol.daemon_report`
        whose shape is ``shape``."""
        stamp = stamp_bytes(message["snapshot"]["time"])
        if shape != self._shape:
            self._base = len(json.dumps(message)) - stamp
        # Keep the newest of equal shapes: it shares its parts with the
        # caller's live state, so the older one is freed.
        self._shape = shape
        return self._base + stamp


def _handle_broker_message(proc, conn, msg, metrics) -> None:
    """Epoch witnessing and fencing over the broker's chatter (DESIGN.md §16).

    Epoch-stamped messages (``daemon_welcome``, ``grant_install``,
    ``lease_renew`` — only sent when a warm standby is configured) raise the
    machine's persisted witness; one stamped *below* the witness is answered
    with :func:`~repro.broker.protocol.fence_reject`, which demotes the
    sender.  ``grant_install`` additionally audits the machine for a live
    subapp of another job — the double-grant counter the chaos harness pins
    at zero.
    """
    kind = msg.get("type")
    if kind not in ("daemon_welcome", "grant_install", "lease_renew"):
        return
    epoch = int(msg.get("epoch", 0))
    witnessed = witnessed_epoch(proc.machine)
    if epoch < witnessed:
        metrics.counter("fencing.rejections").inc()
        conn.send(protocol.fence_reject(epoch, witnessed, proc.machine.name))
        return
    witness_epoch(proc.machine, epoch)
    if kind == "grant_install":
        granted = int(msg.get("jobid", -1))
        others = [j for j in leased_jobids(proc) if j != granted]
        if others:
            metrics.counter("fencing.double_grants").inc()


def rbdaemon_main(proc):
    """Program body: ``argv = ["rbdaemon", broker_host, *failover_hosts]``.

    Extra argv entries are alternate broker addresses (the warm standby's
    well-known secondary); every reconnect round dials them all so the
    daemon finds whichever incarnation is alive within one backoff step.
    """
    from repro.obs import metrics_of, tracer_of

    if len(proc.argv) < 2:
        return 1
    machine = proc.machine
    broker_hosts = list(dict.fromkeys(proc.argv[1:]))
    cal = proc.machine.network.calibration
    boot = tracer_of(proc).start(
        "rbdaemon.boot",
        actor=f"rbdaemon:{proc.machine.name}",
        host=proc.machine.name,
    )
    yield proc.sleep(cal.daemon_startup)
    # After a broker restart the keeper rsh-spawns a fresh daemon while the
    # old one is busy re-registering; whichever boots second bows out so
    # the broker never sees two sessions for one host.
    if any(p is not proc for p in machine.running("rbdaemon")):
        boot.end(outcome="duplicate")
        return 0
    try:
        # The daemon may boot while the broker is still starting (or while
        # the LAN is partitioned); retry with backoff before giving up.
        conn = yield from connect_with_backoff(
            proc,
            broker_hosts,
            ports.BROKER,
            counter=metrics_of(proc).counter("rbdaemon.connect_retries"),
        )
    except (ConnectionRefused, NoSuchHost):
        boot.end(error="broker unreachable")
        return 1
    conn.send(protocol.daemon_hello(proc.machine.name, leases=leased_jobids(proc)))
    boot.end()
    # Detach so the broker's rsh invocation returns while we keep running.
    proc.daemonize()
    metrics = metrics_of(proc)
    reports = metrics.counter("rbdaemon.reports")
    full_reports = metrics.counter("rbdaemon.full_reports")
    beacons = metrics.counter("rbdaemon.beacons")
    report_bytes = metrics.counter("rbdaemon.report_bytes")
    reregistrations = metrics.counter("rbdaemon.reregistrations")
    full_every = max(1, cal.daemon_full_report_every)
    interval = cal.daemon_report_interval
    env = proc.env
    sizer = ReportSizer()
    # The lease inventory as of process-table version ``inventory_version``
    # (a process's status changes only as it leaves the table, which bumps
    # the version; DESIGN.md §12).
    inventory_version = -1
    inventory = []
    # None forces the first report after (re)connecting to be a full one.
    last_probe = None
    cycles_since_full = 0
    while True:
        try:
            # The broker never speaks on this connection unless a standby is
            # configured; the receive side of each wait exists to surface
            # EOF — the only signal of broker death a send-mostly peer gets
            # on a drop-silently LAN.
            while True:
                now = env.now
                # The change probe covers every fact MachineRecord.update
                # reads, plus the login count: load and console directly,
                # process count and lease inventory through the version;
                # platform/kind/owner are static.
                probe = (
                    machine.cpu.load,
                    machine.proc_table_version,
                    machine.console_active,
                    len(machine.logged_in),
                )
                if probe == last_probe and cycles_since_full < full_every:
                    conn.send(protocol.daemon_beacon(now))
                    beacons.inc()
                    report_bytes.inc(BEACON_BASE + stamp_bytes(now))
                    cycles_since_full += 1
                else:
                    if probe[1] != inventory_version:
                        inventory = leased_jobids(proc)
                        inventory_version = probe[1]
                    snapshot = machine.snapshot()
                    message = protocol.daemon_report(snapshot, leases=inventory)
                    conn.send(message)
                    full_reports.inc()
                    # The probe fixes every field but the login names and
                    # the timestamp.
                    report_bytes.inc(
                        sizer.size((probe, snapshot["logged_in"]), message)
                    )
                    last_probe = probe
                    cycles_since_full = 1
                reports.inc()
                # Broker chatter (epoch stamps, with a standby configured) is
                # handled without resetting the report *deadline* — the
                # cadence the broker's liveness deadline counts on must not
                # stretch or compress under fencing traffic.  A wait woken
                # by a message is followed by one for the remaining interval.
                due = now + interval
                remaining = due - now  # not ``interval``: float rounding
                while remaining > 0.0:
                    received = yield conn.recv_or_deadline(remaining)
                    if received is EXPIRED:
                        break
                    _handle_broker_message(proc, conn, received, metrics)
                    remaining = due - env.now
        except ConnectionClosed:
            conn.close()
            last_probe = None  # the next incarnation starts with a full report
            cycles_since_full = 0
        # Broker (or the path to it) is gone: re-register.  Redial forever —
        # the keeper of a live broker respawns daemons on *connection* loss,
        # so a daemon that exited here would never be replaced.
        conn = yield from connect_with_backoff(
            proc,
            broker_hosts,
            ports.BROKER,
            attempts=math.inf,
            counter=metrics_of(proc).counter("rbdaemon.connect_retries"),
        )
        reregistrations.inc()
        conn.send(
            protocol.daemon_hello(
                proc.machine.name, leases=leased_jobids(proc), resumed=True
            )
        )
