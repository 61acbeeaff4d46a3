"""Span queries: the trace-side replacement for ad-hoc event-log scans.

The experiment harnesses used to reduce the broker's flat event list by
hand; these helpers ask the same questions of the span tree instead, which
also gives per-phase breakdowns (``phase_durations``) the event log never
had.

Span names used by the instrumentation (the vocabulary these queries rely
on):

==================  ======================================================
``job.submit``       root: one submitted job, from submission to app exit
``app.run``          the app process lifetime
``app.register``     app start -> broker submit_ack
``app.rsh_request``  one intercepted rsh handled by the app
``app.machine_wait`` machine_request sent -> grant/denial/queueing
``app.revoke``       revoke received -> host released
``module.<prog>``    one external-module script run (e.g. module.pvm_grow)
``rshprime``         one rsh' invocation end to end
``broker.job``       broker-side job record lifetime
``broker.request``   request arrival -> grant/denial (attr ``host`` on grant)
``broker.reclaim``   revoke sent -> machine released
``pvm.add_host``     PVM master add: rsh -> slave pvmd registered
``lam.boot_node``    LAM origin boot of one remote lamd
``calypso.worker``   one Calypso worker session (join -> loss/shutdown)
``rbdaemon.boot``    monitoring daemon startup handshake
==================  ======================================================
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.spans import Span, Tracer

#: Span name of a broker-side machine request (granted ones carry ``host``).
REQUEST_SPAN = "broker.request"


def _tracer_of(source: Any) -> Tracer:
    """Accept a Tracer, or anything exposing one (BrokerService, Cluster)."""
    if isinstance(source, Tracer):
        return source
    tracer = getattr(source, "tracer", None)
    if isinstance(tracer, Tracer):
        return tracer
    network = getattr(source, "network", None)
    if network is not None and isinstance(network.tracer, Tracer):
        return network.tracer
    raise TypeError(f"no tracer on {source!r}")


def grant_times(source: Any, jobid: int, since: float = 0.0) -> List[float]:
    """Times at which ``jobid`` was granted machines, relative to ``since``.

    A grant is a finished ``broker.request`` span carrying a ``host``
    attribute, and its end instant is exactly when the broker logged the
    grant.
    """
    tracer = _tracer_of(source)
    return sorted(
        span.ended_at - since
        for span in tracer.spans_named(REQUEST_SPAN)
        if span.finished
        and span.attrs.get("jobid") == jobid
        and span.attrs.get("host") is not None
        and span.ended_at >= since
    )


def trace_root(tracer: Tracer, trace_id: int) -> Optional[Span]:
    """The root span of one trace, if present."""
    for span in tracer.roots():
        if span.trace_id == trace_id:
            return span
    return None


def is_connected(tracer: Tracer, trace_id: int) -> bool:
    """Whether every span of the trace reaches the root via parent links."""
    spans = tracer.trace(trace_id)
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        seen = set()
        node = span
        while node.parent_id is not None:
            if node.parent_id in seen or node.parent_id not in by_id:
                return False
            seen.add(node.parent_id)
            node = by_id[node.parent_id]
        if node.trace_id != trace_id:
            return False
    return True


def phase_durations(tracer: Tracer, trace_id: int) -> Dict[str, float]:
    """Total finished-span duration per span name within one trace."""
    totals: Dict[str, float] = {}
    for span in tracer.trace(trace_id):
        if span.finished:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def format_trace(tracer: Tracer, trace_id: Optional[int] = None) -> str:
    """Render trace trees as an indented text outline (what rbtrace writes)."""
    roots = tracer.roots()
    if trace_id is not None:
        roots = [r for r in roots if r.trace_id == trace_id]
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        end = f"{span.ended_at:9.3f}" if span.finished else "     open"
        host = span.attrs.get("host", "-")
        lines.append(
            f"{span.started_at:9.3f} {end} {'  ' * depth}{span.name} "
            f"[{host}] ({span.duration:.3f}s)"
        )
        for child in tracer.children_of(span):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines) + ("\n" if lines else "")
