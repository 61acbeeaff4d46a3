"""Property: a faulted run is a pure function of its seed.

Every source of nondeterminism in a chaos run — fault times, victims,
heartbeat-drop coin flips, scheduling — draws from named streams of the
simulation RNG, so the same seed must reproduce the run *exactly*: same
fault plan, same counters, and a byte-identical exported trace.  This is
the debuggability half of the fault-injection subsystem: any failure found
by chaos testing can be replayed at will.
"""

from repro.experiments import run_chaos
from repro.obs import TraceCollector


def _run(seed, tmp_path, tag):
    collector = TraceCollector()
    table = run_chaos(seed=seed, trace=collector)
    path = tmp_path / f"chaos-{tag}.jsonl"
    collector.write(str(path))
    return table, path.read_bytes()


def test_same_seed_same_fault_plan_byte_identical_trace(tmp_path):
    table_a, trace_a = _run(3, tmp_path, "a")
    table_b, trace_b = _run(3, tmp_path, "b")

    assert table_a.meta["plan"] == table_b.meta["plan"]
    assert table_a.meta["completed"] == table_b.meta["completed"]
    assert str(table_a) == str(table_b)
    assert trace_a == trace_b


def test_different_seeds_diverge(tmp_path):
    table_a, trace_a = _run(3, tmp_path, "a2")
    table_b, trace_b = _run(4, tmp_path, "b2")
    assert table_a.meta["plan"] != table_b.meta["plan"]
    assert trace_a != trace_b
