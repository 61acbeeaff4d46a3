"""Calibration constants for the simulated cluster.

Every latency in the simulator is defined here, together with the paper
measurement it is calibrated against.  The paper's testbed was sixteen 200 MHz
PentiumPro machines running RedHat 5.0 Linux on Fast Ethernet (paper §6); the
printed digits of its tables are partially corrupted in the available text, so
where a value is ambiguous we adopt the value stated in prose (e.g. "the
overhead associated with rsh' is approximately 0.3 seconds", "a reallocation
completes in approximately 1 second per machine") and note the assumption.

Changing a constant here moves the absolute numbers of every reproduced table
but must not change their *shape* (who wins, crossover positions, linearity);
the test suite pins the shapes, not the absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Calibration:
    """Latency model of the simulated testbed (all values in seconds)."""

    #: One-way LAN message latency (Fast Ethernet, small control messages).
    network_latency: float = 0.0002

    #: TCP connect + rshd authentication handshake.
    rsh_connect: float = 0.13

    #: rshd fork/exec of the remote command.
    rshd_fork: float = 0.14

    #: Generic process exec overhead (load binary, runtime init).
    proc_startup: float = 0.02

    #: One-time cost of submitting a job through an ``app`` process: starting
    #: the app, registering the job with the broker, setting up the monitoring
    #: session.  Calibrated so Table 1's "rsh' n01 null" lands near 0.6 s
    #: against plain rsh's 0.3 s (paper: overhead "approximately 0.3 seconds").
    app_submit: float = 0.27

    #: Marginal cost of one rsh' invocation that passes a *real* host name
    #: through to the standard rsh.  Paper Table 3 prose: "less than 0.3
    #: milliseconds of overhead per machine" when machines are explicitly
    #: named.
    rshp_passthrough: float = 0.00022

    #: rsh' detecting a symbolic name and asking the app layer for a machine
    #: (two LAN round trips: rsh' <-> app <-> broker), excluding any
    #: reallocation the broker may have to perform first.
    rshp_symbolic_negotiation: float = 0.018

    #: Starting a subapp on the target machine (piggybacked on the redirected
    #: rsh; the subapp then fetches the real command from the app).
    subapp_startup: float = 0.03

    #: CPU seconds of the paper's ``loop`` micro-benchmark program ("a C
    #: program with a tight loop running in 6.5 seconds" — digit corrupted,
    #: Table 1 row "rsh n01 loop" reads 6.x; we adopt 6.5).
    loop_work: float = 6.5

    #: Per-machine monitoring daemon report interval.  Not printed in the
    #: paper; chosen so revocation latencies match the ~1 s reallocation.
    daemon_report_interval: float = 2.0

    #: Daemon boot time at broker startup.
    daemon_startup: float = 0.08

    #: Grace period between SIGTERM and SIGKILL when a subapp revokes a
    #: machine ("if the child does not terminate within a specified amount of
    #: time, the subapp terminates the child process").
    sigterm_grace: float = 5.0

    #: Time for an adaptive Calypso/PLinda worker to checkpoint its step and
    #: exit after SIGTERM.  Calibrated (with the control messages around it)
    #: so one reallocation — revoke, graceful worker shutdown, release,
    #: re-grant — lands near the paper's "approximately 1 second" (Table 2
    #: prose and Figure 7's per-machine slope alike).
    adaptive_shutdown: float = 0.95

    #: PVM slave daemon startup once the rsh reaches the target (pvmd init,
    #: master handshake, host table update).
    pvmd_slave_startup: float = 0.72

    #: PVM console startup/shutdown (used by the pvm_grow module, which opens
    #: a console, types "add <host>", and quits).  Together with the failed
    #: phase-I attempt this is what makes the per-host `anylinux` overhead
    #: land near the paper's ~1.2 s.
    pvm_console: float = 1.05

    #: Extra per-host cost of the pvm module path beyond an explicit-name
    #: add.  Paper: "approximately 1.2 seconds overhead for PVM".
    #: (This is an *emergent* number in the simulator: failed attempt +
    #: console open/add/quit; the constant here only documents the target.)
    pvm_anylinux_overhead_target: float = 1.2

    #: LAM daemon startup; LAM's lamgrow is a heavier protocol than PVM's
    #: console add (paper: "1.4 seconds for LAM programs").
    lamd_slave_startup: float = 0.80
    lam_console: float = 1.30
    lam_anylinux_overhead_target: float = 1.4

    #: Calypso worker process startup (worker registers with master).
    calypso_worker_startup: float = 0.06

    #: PLinda server/worker startup.
    plinda_worker_startup: float = 0.06

    #: Broker policy evaluation time per decision (in-memory table scan).
    broker_decision: float = 0.004

    #: How long the broker tolerates silence from a machine before declaring
    #: it dead and reclaiming its allocation.  Not in the paper (which never
    #: crashes a machine); must exceed the worst-case healthy gap between
    #: daemon reports — a killed daemon is respawned within ~one report
    #: interval plus rsh startup (~3 s of silence) — with margin, while
    #: staying well under a crash-with-reboot outage (~8 s) so real failures
    #: are detected before the machine returns.
    liveness_deadline: float = 6.5

    #: Bounded retry-with-backoff for boot-time connects (rbdaemon → broker,
    #: app → broker): attempt count and exponential delay base/cap.
    connect_retry_attempts: int = 5
    connect_retry_base: float = 0.2
    connect_retry_cap: float = 2.0

    #: How long a module job's intercepted rsh' waits for a synchronous
    #: grant before reporting failure and leaving the request queued for an
    #: asynchronous phase-II grow ("as machines become available,
    #: ResourceBroker is able to asynchronously initiate the second phase").
    module_request_timeout: float = 2.5

    #: Every Nth daemon report is a full snapshot even when the machine's
    #: change probe saw nothing move (reports in between are compact delta
    #: beacons that only renew liveness and leases).  Bounds how long a
    #: broker whose record went stale through *lost* reports (it resets
    #: records on connection EOF, faults can drop reports in transit) waits
    #: for re-syncable state: at most ``daemon_full_report_every *
    #: daemon_report_interval`` seconds.
    daemon_full_report_every: int = 5

    #: Lease TTL on every grant.  Daemons piggyback renewal on their report
    #: (one report lists the jobids with live subapps on the machine), so a
    #: healthy holder renews ~``lease_ttl / daemon_report_interval`` times
    #: per TTL; a grant whose holder silently vanished stops renewing and the
    #: machine becomes reclaimable within one TTL even if the holder's app
    #: connection never EOFs.  Must comfortably exceed the grant-to-subapp
    #: window (rsh chain + module grow, a few seconds worst case).
    lease_ttl: float = 12.0

    #: Grace the broker gives an orphaned app session (connection EOF while
    #: the job is unfinished) to reconnect and resume before the job is
    #: declared gone and its holdings freed.  Long enough for an app to
    #: notice the EOF and re-dial a live broker; short enough that a truly
    #: dead app's machines come back quickly.
    session_resume_grace: float = 6.0

    #: Connect attempts an app makes when resuming its broker session after
    #: an EOF (capped backoff, ``connect_retry_base``/``cap``); sized to ride
    #: out a broker crash-plus-restart window (~10 s of refused connects).
    broker_resume_attempts: int = 10

    #: After a broker restart, how long the fresh incarnation trusts daemon
    #: inventories enough to adopt allocations from them.  Outside this
    #: window a report listing an unknown lease is stale noise, not state to
    #: reconstruct (transient mistakes self-heal via lease expiry anyway).
    broker_recovery_window: float = 10.0

    #: Deadline on one external-module script invocation (``pvm_grow`` etc).
    #: A wedged user script must never stall the app's module runner — and
    #: through it the broker's two-phase grow — forever.
    module_script_deadline: float = 8.0

    #: Retries after a wedged module script before falling back to deny
    #: (grow: give the machine back; shrink: blunt subapp revoke).
    module_script_retries: int = 1

    #: How often the durable broker's flusher thread drains coalesced
    #: journal notes (machine views, lease renewals) to disk.  Structural
    #: ops (grants, releases, queue changes) are flushed write-through, so
    #: this bounds only the staleness of the coalesced noise — and the most
    #: a crash can lose of it.
    journal_flush_interval: float = 0.5

    #: WAL size (characters) that triggers a compacting snapshot.  Small
    #: enough that recovery replay stays near-instant and disk stays flat
    #: under sustained load; large enough that steady-state churn does not
    #: snapshot every few seconds.
    journal_compact_bytes: int = 65536

    #: Interval between heartbeats the primary broker sends on the WAL-ship
    #: connection.  Several heartbeats fit inside the promotion deadline so a
    #: single dropped message never triggers a failover.
    standby_heartbeat_interval: float = 0.5

    #: Silence (no heartbeat, no ship frame, redials refused) after which the
    #: warm standby declares the primary dead and promotes itself.  Strictly
    #: below the restart+recover path (crash detection plus the fault plan's
    #: ~4 s restart delay plus replay) — that gap is the point of the warm
    #: standby, and the ``failover`` gate of ``benchmarks/gates.py`` pins it.
    standby_promotion_deadline: float = 2.5

    #: Bound (characters) on shipped-but-unacknowledged WAL data in flight to
    #: the standby.  The primary stops shipping (retaining the tail for
    #: resend) once this much is outstanding, so a slow or partitioned
    #: standby backpressures the ship channel instead of growing it.
    ship_window_chars: int = 8192

    #: Replication lag (characters of flushed-but-unacked WAL) beyond which
    #: the health monitor flags ``health.replication_lag``.  One full ship
    #: window of lag means the channel is stalled, not merely busy.
    replication_lag_chars: int = 8192

    #: Deadline on one cross-shard borrow RPC (connect + request + reply).
    #: Partitioned sends drop silently on this LAN, so the borrower arms a
    #: timer around every sibling dial; past it the sibling counts as
    #: unreachable for this round and the borrower moves on.
    federation_rpc_timeout: float = 3.0

    #: Pause between borrow rounds while a request stays locally
    #: unsatisfiable and no sibling could lend.  Roughly one daemon report
    #: interval: the soonest new capacity (a release, a rejoin) could show
    #: up on either side of the federation.
    federation_borrow_retry: float = 2.0


#: The default calibration used across experiments, matching the paper's
#: testbed as described above.
DEFAULT = Calibration()
