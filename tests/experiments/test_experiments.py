"""Smoke tests for the experiment harnesses (full runs: rbbench ``paper-tables``).

These verify the harness plumbing — fresh clusters per measurement, result
table shapes, metadata — at reduced scale so the main suite stays fast.
"""

import pytest

from repro.experiments import run_table1, run_table2, run_table3, run_utilization
from repro.experiments.fig7 import measure_reallocation, run_fig7
from repro.experiments.results import ExperimentTable


def test_results_table_api():
    table = ExperimentTable(title="T", columns=["Op", "A", "B"])
    table.add("row1", 1.0, 2.0)
    assert table.value("row1") == 1.0
    assert table.value("row1", "B") == 2.0
    with pytest.raises(KeyError):
        table.value("nope")
    rendered = str(table)
    assert "T" in rendered and "row1" in rendered and "2.000" in rendered


def test_table1_rows_and_overhead():
    table = run_table1()
    assert [r.label for r in table.rows] == [
        "rsh n01 null",
        "rsh' n01 null",
        "rsh' anylinux null",
        "rsh n01 loop",
        "rsh' n01 loop",
        "rsh' anylinux loop",
    ]
    assert 0.15 <= table.meta["rshp_overhead_null"] <= 0.45


def test_table1_deterministic():
    a = run_table1(seed=3)
    b = run_table1(seed=3)
    assert [r.values for r in a.rows] == [r.values for r in b.rows]


def test_table2_crossover():
    table = run_table2()
    assert table.meta["loop_crossover"] is True
    assert table.value("rsh' anylinux null") > table.value("rsh n01 null")


def test_table3_shape():
    """The paper's path through the PVM and LAM advertised-daemon dial, in
    the ranges the ``paper-tables`` benchmark checks."""
    table = run_table3()
    host = (
        table.meta["pvm_host_overhead_per_machine"]
        + table.meta["lam_host_overhead_per_machine"]
    )
    any_pvm = table.meta["pvm_anylinux_overhead_per_machine"]
    any_lam = table.meta["lam_anylinux_overhead_per_machine"]
    assert host and all(0.0 <= o < 0.0003 for o in host)
    assert any_pvm and all(0.9 <= o <= 1.5 for o in any_pvm)
    assert any_lam and all(1.1 <= o <= 1.7 for o in any_lam)
    assert all(lam > pvm for lam, pvm in zip(any_lam, any_pvm))
    pvm_rsh = [table.value("pvm w/ rsh", c) for c in table.columns[1:]]
    steps = [b - a for a, b in zip(pvm_rsh, pvm_rsh[1:])]
    assert steps and max(steps) - min(steps) < 0.1


def test_fig7_single_point():
    result = measure_reallocation(2)
    assert result["k"] == 2
    assert len(result["grant_times"]) == 2
    assert result["grant_times"] == sorted(result["grant_times"])
    assert 1.0 <= result["per_machine"] <= 2.5


def test_fig7_table_shape():
    table = run_fig7(sizes=[1, 3])
    assert [r.label for r in table.rows] == ["1", "3"]
    assert table.meta["sizes"] == [1, 3]


def test_utilization_short_horizon():
    table = run_utilization(horizon=600.0)
    assert table.meta["idleness"] < 0.05
    assert table.value("sequential jobs submitted") == 5
    by_host = table.meta["utilization_by_host"]
    assert len(by_host) == 8


def test_utilization_machine_count_parameter():
    table = run_utilization(horizon=300.0, machines=4)
    assert table.value("machines") == 4
    assert len(table.meta["utilization_by_host"]) == 4
