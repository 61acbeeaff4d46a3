"""Span-based tracing over simulated time.

A :class:`Span` is one timed operation — an rsh' interception, a broker
grant, a ``pvm_grow`` run, a slave daemon join.  Spans form trees: every span
except a trace root names its parent, so one job submission yields a single
causally-connected tree from the user's ``app`` invocation down to the last
slave daemon handshake.  All timestamps are *simulated* seconds (``env.now``)
— the same clock the reproduced tables report — which makes span durations
directly comparable to the paper's numbers.

Context propagates two ways, mirroring how causality actually flows in the
system:

* **down the process tree** via the inherited environment variable
  ``RB_TRACE`` (children get a copy of the parent's environ, exactly like the
  ``RB_APP_PORT`` breadcrumb the broker itself relies on); use
  :meth:`Span.environ` when spawning and :func:`context_from_environ` when
  starting a span inside a program body;
* **across the wire** by attaching a context dict to protocol messages
  (:func:`repro.broker.protocol.attach_trace` /
  :func:`repro.broker.protocol.trace_of`).

Span and trace ids are drawn from plain counters, so identical seeds give
byte-identical exports (see ``tests/obs/test_trace_determinism.py``).
"""

from __future__ import annotations

import hashlib
import itertools
import os
from typing import Any, Callable, Dict, List, Optional, Union

#: Environment variable carrying the active span context down the simulated
#: process tree (``"<trace_id>:<span_id>"``).
TRACE_ENVIRON_KEY = "RB_TRACE"

#: Environment variable selecting the default trace sampling rate (0..1).
TRACE_SAMPLE_ENVIRON_KEY = "RB_TRACE_SAMPLE"

#: Wire/dict form of a span context: ``{"trace_id": int, "span_id": int}``.
Context = Dict[str, int]


def format_context(context: Context) -> str:
    """Render a context dict as the compact ``trace:span`` environ form."""
    return f"{context['trace_id']}:{context['span_id']}"


def parse_context(text: Optional[str]) -> Optional[Context]:
    """Parse the ``trace:span`` environ form; None/garbage gives None."""
    if not text:
        return None
    parts = text.split(":")
    if len(parts) != 2:
        return None
    try:
        return {"trace_id": int(parts[0]), "span_id": int(parts[1])}
    except ValueError:
        return None


def context_from_environ(environ: Dict[str, str]) -> Optional[Context]:
    """The span context a process inherited, if any."""
    return parse_context(environ.get(TRACE_ENVIRON_KEY))


class Span:
    """One timed operation in a trace tree.

    Created via :meth:`Tracer.start`; finished with :meth:`end`.  ``attrs``
    is a free-form dict; by convention ``host`` names the machine the
    operation ran on and ``actor`` the component (app, broker, rsh, ...), and
    the exporters use both to lay spans out in the Chrome trace viewer.
    """

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "started_at",
        "ended_at",
        "sampled",
        "_attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        started_at: float,
        attrs: Optional[Dict[str, Any]],
        sampled: bool = True,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.started_at = started_at
        self.ended_at: Optional[float] = None
        self.sampled = sampled
        # Allocated lazily: attribute-less spans (and there are many on the
        # hot instrumentation paths) never pay for a dict.
        self._attrs = attrs if attrs else None

    # -- state ---------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether :meth:`end` has been called."""
        return self.ended_at is not None

    @property
    def duration(self) -> float:
        """Elapsed simulated seconds (up to now if still open)."""
        end = self.ended_at if self.ended_at is not None else self.tracer.env.now
        return end - self.started_at

    @property
    def context(self) -> Context:
        """This span's wire-form context (for child spans elsewhere)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @property
    def attrs(self) -> Dict[str, Any]:
        """The span's attribute dict (created on first touch)."""
        attrs = self._attrs
        if attrs is None:
            attrs = self._attrs = {}
        return attrs

    # -- mutation ------------------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        """Merge attributes into the span; returns self for chaining."""
        if attrs:
            self.attrs.update(attrs)
        return self

    def end(self, **attrs: Any) -> "Span":
        """Close the span at the current simulated instant (idempotent)."""
        if attrs:
            self.attrs.update(attrs)
        if self.ended_at is None:
            self.ended_at = self.tracer.env.now
            if self.sampled and self.tracer._observers:
                for observer in self.tracer._observers:
                    observer(self)
        return self

    # -- propagation -----------------------------------------------------------

    def environ(self) -> Dict[str, str]:
        """Environ fragment that makes spawned children parent under us."""
        return {TRACE_ENVIRON_KEY: format_context(self.context)}

    def __repr__(self) -> str:
        state = f"..{self.ended_at:.3f}" if self.finished else " (open)"
        return (
            f"<Span {self.name} t{self.trace_id}/s{self.span_id} "
            f"{self.started_at:.3f}{state}>"
        )


#: What :meth:`Tracer.start` accepts as a parent.
ParentLike = Union[Span, Context, str, None]


class Tracer:
    """Records spans against one simulation environment's clock.

    One tracer exists per :class:`~repro.cluster.network.Network` (i.e. per
    simulated cluster), created unconditionally — recording is cheap, and an
    always-on tracer is what makes every experiment's run inspectable after
    the fact without re-running it.

    ``sample`` (default from ``RB_TRACE_SAMPLE``, 1.0 when unset) is a
    head-based trace sampling rate: the keep/drop decision is made once per
    *trace*, at root creation, by hashing ``"<seed>:<trace_id>"`` — so it is
    deterministic for a given seed, every trace tree is kept or dropped
    whole, and identical seeds still give identical exports at any rate.
    Unsampled spans are created (ids advance identically — determinism does
    not depend on the rate) but are not recorded or indexed, and span-end
    observers never see them.
    """

    def __init__(self, env: Any, sample: Optional[float] = None) -> None:
        self.env = env
        if sample is None:
            sample = float(os.environ.get(TRACE_SAMPLE_ENVIRON_KEY, "1.0"))
        self.sample = min(1.0, max(0.0, sample))
        self._sample_seed = int(getattr(getattr(env, "rng", None), "seed", 0) or 0)
        #: Trace ids sampled out, remembered so their child spans follow —
        #: only at a fractional rate: at 0 every trace is out and at 1 none
        #: is, so there is nothing to remember and the set stays empty
        #: however long the run.
        self._unsampled_traces: set = set()
        self.spans: List[Span] = []
        self.spans_started = 0
        self.spans_sampled_out = 0
        self._observers: List[Callable[[Span], None]] = []
        self._by_id: Dict[int, Span] = {}
        # Query indexes, maintained at append time (mirroring the broker's
        # events_of index): the recall surface — trace viewers, experiment
        # reductions, rbtrace's tree walk — answers from these in O(matches)
        # instead of scanning every span ever recorded.
        self._by_name: Dict[str, List[Span]] = {}
        self._by_trace: Dict[int, List[Span]] = {}
        self._by_parent: Dict[int, List[Span]] = {}
        self._roots: List[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- creation ------------------------------------------------------------

    def add_observer(self, observer: Callable[[Span], None]) -> None:
        """Register a callback invoked with each sampled span as it ends."""
        self._observers.append(observer)

    def _keep_trace(self, trace_id: int) -> bool:
        """The head-based keep/drop decision at a fractional rate."""
        digest = hashlib.sha256(
            f"{self._sample_seed}:{trace_id}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64 < self.sample

    def start(self, name: str, parent: ParentLike = None, **attrs: Any) -> Span:
        """Open a span; ``parent`` may be a Span, a context dict, the
        ``trace:span`` string form, or None (which roots a new trace)."""
        if isinstance(parent, str):
            parent = parse_context(parent)
        if isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif isinstance(parent, dict):
            trace_id, parent_id = parent["trace_id"], parent["span_id"]
        else:
            trace_id, parent_id = next(self._trace_ids), None
        self.spans_started += 1
        if self.sample >= 1.0:
            sampled = True
        elif self.sample <= 0.0:
            sampled = False
        elif parent_id is None:
            sampled = self._keep_trace(trace_id)
            if not sampled:
                self._unsampled_traces.add(trace_id)
        else:
            sampled = trace_id not in self._unsampled_traces
        span = Span(
            tracer=self,
            name=name,
            trace_id=trace_id,
            span_id=next(self._span_ids),
            parent_id=parent_id,
            started_at=self.env.now,
            attrs=attrs,
            sampled=sampled,
        )
        if not sampled:
            self.spans_sampled_out += 1
            return span
        self.spans.append(span)
        self._by_id[span.span_id] = span
        self._by_name.setdefault(name, []).append(span)
        self._by_trace.setdefault(trace_id, []).append(span)
        if parent_id is None:
            self._roots.append(span)
        else:
            self._by_parent.setdefault(parent_id, []).append(span)
        return span

    # -- queries -------------------------------------------------------------

    def get(self, span_id: int) -> Optional[Span]:
        """The span with this id, if recorded."""
        return self._by_id.get(span_id)

    def spans_named(self, name: str) -> List[Span]:
        """All spans called ``name``, in start order."""
        return list(self._by_name.get(name, ()))

    def trace(self, trace_id: int) -> List[Span]:
        """All spans of one trace tree, in start order."""
        return list(self._by_trace.get(trace_id, ()))

    def roots(self) -> List[Span]:
        """Spans with no parent (one per trace), in start order."""
        return list(self._roots)

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of ``span``, in start order."""
        return list(self._by_parent.get(span.span_id, ()))

    def self_stats(self) -> Dict[str, Any]:
        """Obs self-metering: sampling rate, spans started/kept/dropped."""
        return {
            "sample": self.sample,
            "spans_started": self.spans_started,
            "spans_kept": len(self.spans),
            "spans_sampled_out": self.spans_sampled_out,
        }

    def __repr__(self) -> str:
        open_count = sum(1 for s in self.spans if not s.finished)
        return f"<Tracer spans={len(self.spans)} open={open_count}>"
