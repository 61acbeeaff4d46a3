"""Federated chaos: ``run_chaos(shards=N)``, the ``shards`` scenario of
``python -m repro chaos``.

The acceptance gate for the federated control plane under fire: shard 1's
broker is SIGKILLed and restarted, the shard 0 <-> shard 1 control link
partitions, machines crash and the LAN misbehaves — and still every job
completes, no machine is ever double-granted, and the same seed reproduces
the run byte-for-byte.
"""

import pytest

from repro.experiments import run_chaos


def test_federated_chaos_every_job_completes():
    table = run_chaos(seed=1, shards=2)
    assert table.meta["completed"] == table.meta["jobs"]
    assert table.meta["double_grants"] == 0
    assert table.value("broker shards") == 2
    # The schedule really exercised the federation: a shard-broker crash,
    # an inter-shard link partition, and actual cross-shard borrowing.
    plan = table.meta["plan"]
    assert "shard_link_partition" in plan
    assert "broker_crash" in plan
    assert table.value("cross-shard grants") >= 1
    assert int(table.value("loans out / refusals").split(" / ")[0]) >= 1
    # Every shard reports its own federation block.
    assert len(table.meta["shard_stats"]) == 2
    assert table.meta["stuck_allocations"] == 0


def test_federated_chaos_three_shards(checked):
    table = run_chaos(seed=2, shards=3)
    assert table.meta["completed"] == table.meta["jobs"]
    assert table.meta["double_grants"] == 0
    assert len(table.meta["shard_stats"]) == 3
    assert checked.settled() is None


def test_federated_chaos_same_seed_byte_identical():
    a = run_chaos(seed=4, shards=2)
    b = run_chaos(seed=4, shards=2)
    assert str(a) == str(b)
    assert a.meta == b.meta


def test_standby_and_federation_are_exclusive():
    with pytest.raises(ValueError):
        run_chaos(seed=1, standby=True, shards=2)
