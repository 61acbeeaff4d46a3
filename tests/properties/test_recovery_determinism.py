"""Property: broker crash recovery is deterministic and order-independent.

A restarted broker reconstructs its state from whichever daemons and apps
reach it first — an inherently racy process.  These properties pin the two
guarantees that make recovery debuggable: the reconstructed state does not
depend on arrival order (adoption is commutative), and a whole chaos run
with a broker crash in it is still a pure function of its seed.
"""

import itertools

from repro.broker.state import BrokerState
from repro.experiments import run_chaos
from repro.obs import TraceCollector

_INVENTORY = {"n01": 7, "n02": 7, "n03": 9}


def _adopt_in(order):
    state = BrokerState(first_jobid=10)
    for host in sorted(_INVENTORY):
        state.add_machine(host)
    for host in order:
        state.adopt_allocation(
            host, _INVENTORY[host], now=5.0, lease_expires_at=17.0
        )
    return {
        host: (
            state.machines[host].allocation.jobid,
            state.machines[host].allocation.lease_expires_at,
        )
        for host in sorted(_INVENTORY)
    }


def test_adoption_is_order_independent():
    """Daemons re-register in any order; the reconstructed allocation table
    is the same for every permutation."""
    results = [_adopt_in(order) for order in itertools.permutations(_INVENTORY)]
    assert all(result == results[0] for result in results)


def test_repeated_adoption_is_a_commutative_renewal():
    """Hello inventory and app resume both testify to the same allocation;
    whichever lands second must only ever push the lease forward."""
    a = BrokerState()
    a.add_machine("n01")
    a.adopt_allocation("n01", 7, now=1.0, lease_expires_at=13.0)
    a.adopt_allocation("n01", 7, now=2.0, lease_expires_at=11.0)
    b = BrokerState()
    b.add_machine("n01")
    b.adopt_allocation("n01", 7, now=1.0, lease_expires_at=11.0)
    b.adopt_allocation("n01", 7, now=2.0, lease_expires_at=13.0)
    assert (
        a.machines["n01"].allocation.lease_expires_at
        == b.machines["n01"].allocation.lease_expires_at
        == 13.0
    )


def test_conflicting_adoption_does_not_overwrite():
    state = BrokerState()
    state.add_machine("n01")
    first = state.adopt_allocation("n01", 7, now=1.0, lease_expires_at=13.0)
    assert first is not None
    second = state.adopt_allocation("n01", 8, now=2.0, lease_expires_at=14.0)
    assert second is None
    assert state.machines["n01"].allocation.jobid == 7


def _crash_run(seed, tmp_path, tag):
    collector = TraceCollector()
    table = run_chaos(seed=seed, broker_crashes=1, trace=collector)
    path = tmp_path / f"brokerchaos-{tag}.jsonl"
    collector.write(str(path))
    return table, path.read_bytes()


def test_broker_crash_run_is_byte_identical_for_same_seed(tmp_path):
    table_a, trace_a = _crash_run(5, tmp_path, "a")
    table_b, trace_b = _crash_run(5, tmp_path, "b")
    assert table_a.meta["plan"] == table_b.meta["plan"]
    assert str(table_a) == str(table_b)
    assert trace_a == trace_b
    # And the recovery actually happened in this run.
    assert "broker_crash" in table_a.meta["plan"]
    assert table_a.meta["completed"] == table_a.meta["jobs"]
    assert table_a.meta["stuck_allocations"] == 0
