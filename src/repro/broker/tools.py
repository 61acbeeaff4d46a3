"""User-facing ResourceBroker command-line tools.

The paper (§4.1): "Users communicate with ResourceBroker to query machine
availability, to learn the status of queued jobs, to submit a job for
execution and specify its resource requirements."  Submission is the ``app``
program; these two cover the rest:

* ``rbstat`` — query the broker and write a human-readable status report to
  ``~/.rbstat`` (machine availability, job table, queue depth).  With
  ``--stats`` it asks for the live telemetry snapshot instead (queue
  depths, per-phase latency digests, warm-standby replication and fencing
  counters, the shard's federation block — owned/borrowed/loaned machine
  counts and cross-shard borrow traffic — and obs self-metering).  Exit 0
  on success, 1 if the broker is unreachable.
* ``rbctl halt <jobid>`` — ask the broker to stop a job (delivered to the
  job's app, which uses the job's ``<module>_halt`` script when there is
  one).
* ``rbtrace`` — dump the run's span trees (``repro.obs``) to ``~/.rbtrace``.
* ``rbtop`` — a live poller: with ``RB_BROKER_HOST`` set it fetches the
  broker's ``stats`` snapshot over the wire (``--polls``/``--interval``
  control the refresh loop) and writes each refresh to ``~/.rbtop``;
  without a broker in the environment it falls back to dumping the ambient
  metrics registry.

Report paths are overridable through the environment (``RB_STAT_FILE``,
``RB_TRACE_FILE``, ``RB_TOP_FILE``) so concurrent tools and tests need not
collide on one home-relative path.
"""

from __future__ import annotations

import os

from repro.broker import protocol
from repro.cluster import ports
from repro.obs.metrics import render_lines
from repro.os.errors import ConnectionClosed, ConnectionRefused, NoSuchHost

#: Where rbstat drops its report (home-relative; ``RB_STAT_FILE`` overrides).
RBSTAT_FILE = "~/.rbstat"

#: Where rbtrace drops its outline (home-relative; ``RB_TRACE_FILE`` overrides).
RBTRACE_FILE = "~/.rbtrace"

#: Where rbtop drops its snapshot (home-relative; ``RB_TOP_FILE`` overrides).
RBTOP_FILE = "~/.rbtop"


def _broker_host(proc):
    return proc.environ.get("RB_BROKER_HOST")


def _report_path(proc, key: str, default: str) -> str:
    """The tool's output path: process environ, then host environ, then
    the home-relative default."""
    return proc.environ.get(key) or os.environ.get(key) or default


def rbstat_main(proc):
    """``rbstat [--stats]``: fetch and persist a broker report.

    The default report is the status summary (machine/job tables);
    ``--stats`` asks for the live telemetry snapshot instead.  A down
    broker fails fast: the report file still gets written, with a clear
    one-line error in place of the summary, so a user staring at a stale
    ``~/.rbstat`` can tell "broker dead" from "nothing changed"."""
    out = _report_path(proc, "RB_STAT_FILE", RBSTAT_FILE)
    want_stats = "--stats" in proc.argv[1:]
    host = _broker_host(proc)
    if host is None:
        return 1
    try:
        conn = yield proc.connect(host, ports.BROKER)
    except (ConnectionRefused, NoSuchHost):
        proc.write_file(out, "error: broker unreachable\n")
        return 1
    conn.send(
        protocol.stats_request() if want_stats else protocol.status_request()
    )
    try:
        reply = yield conn.recv()
    except ConnectionClosed:
        proc.write_file(out, "error: broker unreachable\n")
        return 1
    conn.close()
    if want_stats:
        if reply.get("type") != "stats_reply":
            return 1
        proc.write_file(out, format_stats(reply["stats"]))
        return 0
    if reply.get("type") != "status_reply":
        return 1
    proc.write_file(out, format_status(reply["summary"]))
    return 0


def format_status(summary: dict) -> str:
    """Render the broker summary as the report rbstat writes."""
    lines = ["== machines =="]
    for host, info in summary.get("machines", {}).items():
        owner = "console-active" if info.get("console_active") else "idle-console"
        lines.append(
            f"{host}: allocated_to={info.get('allocated_to')} "
            f"state={info.get('state')} load={info.get('load')} {owner}"
        )
    lines.append("== jobs ==")
    for jobid, info in summary.get("jobs", {}).items():
        lines.append(
            f"job {jobid}: user={info.get('user')} "
            f"adaptive={info.get('adaptive')} module={info.get('module')} "
            f"holdings={info.get('holdings')} done={info.get('done')}"
        )
    lines.append(f"pending requests: {summary.get('pending', 0)}")
    return "\n".join(lines) + "\n"


def format_stats(stats: dict) -> str:
    """Render the broker's live telemetry snapshot as a report."""
    lines = [
        f"== broker stats @ t={stats.get('time', 0.0):.3f}s "
        f"(epoch {stats.get('epoch', 1)}) ==",
        (
            f"pending={stats.get('pending', 0)} "
            f"dirty={stats.get('dirty_pending', 0)} "
            f"machines={stats.get('machines_reported', 0)}/"
            f"{stats.get('machines', 0)} reported "
            f"leased={stats.get('leased', 0)} "
            f"reclaiming={stats.get('reclaiming', 0)}"
        ),
        (
            f"jobs={stats.get('jobs', 0)} done={stats.get('jobs_done', 0)} "
            f"grants={stats.get('grants', 0):g} "
            f"denials={stats.get('denials', 0):g} "
            f"revokes={stats.get('revokes', 0):g}"
        ),
        (
            f"leases: adopted={stats.get('leases_adopted', 0):g} "
            f"expired={stats.get('leases_expired', 0):g} "
            f"sessions resumed={stats.get('sessions_resumed', 0):g}"
        ),
        (
            f"scans/grant={stats.get('scans_per_grant', 0.0):.2f} "
            f"grant rate={stats.get('grant_rate', 0.0):.3f}/s"
        ),
    ]
    kernel = stats.get("kernel", {})
    if kernel:
        lines.append(
            f"kernel: events={kernel.get('events_processed', 0)} "
            f"heap hwm={kernel.get('heap_high_water', 0)}"
        )
    journal = stats.get("journal", {})
    if journal.get("enabled"):
        lines.append(
            f"journal: gen={journal.get('generation', 0)} "
            f"records={journal.get('records', 0)} "
            f"flushes={journal.get('flushes', 0)} "
            f"compactions={journal.get('compactions', 0)} "
            f"bytes={journal.get('total_bytes', 0)} "
            f"lag={journal.get('flush_lag', 0.0):.3f}s"
            + (" STALLED" if journal.get("stalled") else "")
        )
    replication = stats.get("replication", {})
    if replication.get("enabled"):
        lines.append(
            f"replication: stream={replication.get('stream', 0)} "
            f"flushed={replication.get('flushed_offset', 0)} "
            f"acked={replication.get('acked_offset', 0)} "
            f"lag={replication.get('lag_chars', 0)} "
            f"frames={replication.get('frames', 0):g} "
            f"snapshots={replication.get('snapshots', 0):g} "
            f"resends={replication.get('resends', 0):g}"
        )
    if "promotions" in replication:
        lines.append(
            f"fencing: promotions={replication.get('promotions', 0):g} "
            f"demotions={replication.get('demotions', 0):g} "
            f"rejections={replication.get('fencing_rejections', 0):g} "
            f"double_grants={replication.get('double_grants', 0):g}"
        )
    federation = stats.get("federation", {})
    if federation.get("enabled"):
        lines.append(
            f"federation: shard={federation.get('shard', 0)}/"
            f"{federation.get('shards', 1)} "
            f"owned={federation.get('owned_machines', 0)} "
            f"borrowed={federation.get('borrowed_machines', 0)} "
            f"loaned={federation.get('loaned_machines', 0)}"
        )
        lines.append(
            f"  borrows: forwards={federation.get('forwards', 0):g} "
            f"cross_grants={federation.get('cross_shard_grants', 0):g} "
            f"loans_out={federation.get('loans_out', 0):g} "
            f"refusals={federation.get('loan_refusals', 0):g} "
            f"recalls={federation.get('recalls', 0):g} "
            f"returns={federation.get('returns', 0):g}"
        )
        lines.append(
            f"  fencing: rejections={federation.get('fencing_rejections', 0):g} "
            f"double_grants={federation.get('double_grants', 0):g}"
        )
    recovery = stats.get("recovery", {})
    if recovery and any(recovery.values()):
        lines.append(
            f"recovery: journal={recovery.get('from_journal', 0):g} "
            f"rereg={recovery.get('from_reregistration', 0):g} "
            f"replayed={recovery.get('replayed_records', 0):g} "
            f"conflicts={recovery.get('conflicts', 0):g} "
            f"latency={recovery.get('latency_seconds', 0.0):.3f}s"
        )
    phases = stats.get("phases", {})
    if phases:
        lines.append("== phases ==")
        for phase, digest in phases.items():
            lines.append(
                f"{phase}: n={digest['count']} mean={digest['mean']:.3f} "
                f"p50={digest['p50']:.3f} p95={digest['p95']:.3f} "
                f"max={digest['max']:.3f}"
            )
    obs = stats.get("obs", {})
    if obs:
        tracer = obs.get("tracer", {})
        metrics = obs.get("metrics", {})
        lines.append("== obs ==")
        lines.append(
            f"tracer: sample={tracer.get('sample', 1.0):g} "
            f"started={tracer.get('spans_started', 0)} "
            f"kept={tracer.get('spans_kept', 0)} "
            f"sampled_out={tracer.get('spans_sampled_out', 0)}"
        )
        lines.append(
            f"metrics: mode={metrics.get('mode', 'exact')} "
            f"instruments={metrics.get('instruments', 0)} "
            f"updates={metrics.get('updates', 0)} "
            f"series_points={metrics.get('series_points', 0)}"
        )
    snapshot = stats.get("metrics", {})
    if snapshot:
        lines.append("== metrics ==")
        lines.extend(render_lines(snapshot))
    return "\n".join(lines) + "\n"


def rbctl_main(proc):
    """``rbctl halt <jobid>``."""
    if len(proc.argv) < 3 or proc.argv[1] != "halt":
        return 1
    host = _broker_host(proc)
    if host is None:
        return 1
    try:
        jobid = int(proc.argv[2])
    except ValueError:
        return 1
    try:
        conn = yield proc.connect(host, ports.BROKER)
    except (ConnectionRefused, NoSuchHost):
        return 1
    conn.send(protocol.halt_job(jobid))
    try:
        reply = yield conn.recv()
    except ConnectionClosed:
        return 1
    conn.close()
    return 0 if reply.get("ok") else 1


def rbtrace_main(proc):
    """``rbtrace``: write the run's span trees to ``~/.rbtrace``.

    Reads the run-wide tracer directly (the simulation's observability
    plane is ambient, not a broker RPC) and renders every trace as an
    indented outline — the terminal analogue of opening the Chrome-trace
    export in Perfetto.
    """
    from repro.obs import format_trace, tracer_of

    yield proc.sleep(0)
    out = _report_path(proc, "RB_TRACE_FILE", RBTRACE_FILE)
    proc.write_file(out, format_trace(tracer_of(proc)))
    return 0


def _rbtop_args(argv) -> tuple:
    """Parse ``rbtop``'s ``--polls N`` / ``--interval SEC`` flags."""
    polls, interval = 1, 2.0
    args = list(argv[1:])
    while args:
        flag = args.pop(0)
        if flag == "--polls" and args:
            try:
                polls = max(1, int(args.pop(0)))
            except ValueError:
                pass
        elif flag == "--interval" and args:
            try:
                interval = max(0.0, float(args.pop(0)))
            except ValueError:
                pass
    return polls, interval


def rbtop_main(proc):
    """``rbtop [--polls N] [--interval SEC]``: live broker telemetry.

    With ``RB_BROKER_HOST`` set this is a wire poller: each refresh asks
    the broker for its ``stats`` snapshot and overwrites the report file
    with the latest view — a terminal ``top`` over the allocation control
    plane.  Without a broker in the environment it degrades to a one-shot
    dump of the run's ambient metrics registry (the original behaviour,
    still what experiment post-mortems want)."""
    from repro.obs import metrics_of

    out = _report_path(proc, "RB_TOP_FILE", RBTOP_FILE)
    host = _broker_host(proc)
    if host is None:
        yield proc.sleep(0)
        proc.write_file(out, metrics_of(proc).render())
        return 0
    polls, interval = _rbtop_args(proc.argv)
    for poll in range(polls):
        if poll:
            yield proc.sleep(interval)
        try:
            conn = yield proc.connect(host, ports.BROKER)
        except (ConnectionRefused, NoSuchHost):
            proc.write_file(out, "error: broker unreachable\n")
            return 1
        conn.send(protocol.stats_request())
        try:
            reply = yield conn.recv()
        except ConnectionClosed:
            proc.write_file(out, "error: broker unreachable\n")
            return 1
        conn.close()
        if reply.get("type") != "stats_reply":
            return 1
        proc.write_file(out, format_stats(reply["stats"]))
    return 0
