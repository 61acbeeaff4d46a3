"""Shared fixtures for broker integration tests."""

from dataclasses import dataclass
from typing import Any, List, Optional

import pytest

from repro.cluster import Cluster, ClusterSpec, MachineSpec


@pytest.fixture
def cluster4():
    """4 public machines, broker on n00."""
    cluster = Cluster(ClusterSpec.uniform(4))
    cluster.start_broker()
    cluster.broker.wait_ready()
    return cluster


@pytest.fixture
def mixed_cluster():
    """2 public + 2 private machines (owned by ann and bob), broker on n00."""
    spec = ClusterSpec(
        machines=[
            MachineSpec(name="n00"),
            MachineSpec(name="n01"),
            MachineSpec(name="p00", private_owner="ann"),
            MachineSpec(name="p01", private_owner="bob"),
        ]
    )
    cluster = Cluster(spec)
    cluster.start_broker()
    cluster.broker.wait_ready()
    return cluster


def recalled(service):
    """The loaned hosts whose borrower ``service``'s live incarnation has
    sent a recall (its :class:`~repro.broker.federation.Borrowing` part)."""
    from repro.broker.federation import Borrowing

    (lending,) = [p for p in service.control.peers if isinstance(p, Borrowing)]
    return lending._recalled


def install_greedy(cluster):
    """Register the greedy/gracespin churn pair (now lives in
    :mod:`repro.workloads.programs`; kept as a shim for the broker tests)."""
    from repro.workloads import install_churn

    install_churn(cluster.system_bin)


@pytest.fixture
def jcluster4():
    """4 public machines, broker on n00, journal enabled."""
    cluster = Cluster(ClusterSpec.uniform(4))
    cluster.start_broker(journal=True)
    cluster.broker.wait_ready()
    return cluster


@dataclass
class Freed:
    """One call of ``_BrokerControl.free`` and what it left behind."""

    control: Any
    host: str
    outcome: Optional[str]
    #: ``release`` journal ops written for the host during the call.
    releases: int
    #: The reclaim span open for the host when the call began.
    span: Any
    #: Right after the call: a reclaim span still open for the host, and
    #: the pending requests still reserved on it.
    span_left_open: bool
    reserved: List[Any]

    def assert_clean(self, outcome=None, spanned=True) -> None:
        """The machine is back in the pool with nothing left pointing at it:
        one ``release`` op, no open reclaim span, no reservation, and the
        reclaim span (if ``spanned``) ended with ``outcome`` (None: a bare
        graceful end)."""
        assert self.releases == 1
        assert not self.span_left_open
        assert self.reserved == []
        if spanned:
            assert self.span is not None and self.span.finished
            if outcome is None:
                assert "outcome" not in self.span.attrs
            else:
                assert self.span.attrs["outcome"] == outcome
        else:
            assert self.span is None


@pytest.fixture
def frees(monkeypatch):
    """Every machine the broker frees, in call order (a list of
    :class:`Freed`), across every shard and incarnation."""
    from repro.broker.core import _BrokerControl
    from repro.broker.journal import BrokerJournal

    calls: List[Freed] = []
    ops: List[str] = []
    record = BrokerJournal.record
    free = _BrokerControl.free

    def recording(journal, op):
        if op["op"] == "release":
            ops.append(op["host"])
        record(journal, op)

    def spying(control, host, outcome=None):
        span = control.reclaim_spans.get(host)
        written = len(ops)
        allocation = free(control, host, outcome)
        calls.append(
            Freed(
                control=control,
                host=host,
                outcome=outcome,
                releases=ops[written:].count(host),
                span=span,
                span_left_open=host in control.reclaim_spans,
                reserved=[
                    r for r in control.state.pending if r.reserved_host == host
                ],
            )
        )
        return allocation

    monkeypatch.setattr(BrokerJournal, "record", recording)
    monkeypatch.setattr(_BrokerControl, "free", spying)
    return calls
