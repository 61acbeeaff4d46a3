"""The sweep runner's determinism contract and merge/report helpers."""

import json

import pytest

from repro.experiments.sweep import (
    canonical_json,
    expand_grid,
    merge_results,
    run_cell,
    run_sweep,
)


def test_expand_grid_canonical_order():
    grid = expand_grid(["sequential", "churn"], [16, 8], [2, 1])
    assert grid == [
        ("churn", 8, 1),
        ("churn", 8, 2),
        ("churn", 16, 1),
        ("churn", 16, 2),
        ("sequential", 8, 1),
        ("sequential", 8, 2),
        ("sequential", 16, 1),
        ("sequential", 16, 2),
    ]


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        run_sweep(workloads=["nope"], sizes=[4], seeds=[1], sim_minutes=0.1)


def test_cell_is_a_pure_function_of_its_parameters():
    a = run_cell("sequential", 4, seed=3, sim_minutes=0.5)
    b = run_cell("sequential", 4, seed=3, sim_minutes=0.5)
    assert a == b


def test_serial_and_parallel_sweeps_merge_byte_identically():
    kwargs = dict(
        workloads=["churn"], sizes=[4, 6], seeds=[1, 2], sim_minutes=0.5
    )
    serial = run_sweep(workers=1, **kwargs)
    fanned = run_sweep(workers=2, **kwargs)
    doc_serial = canonical_json(merge_results(serial, 0.5))
    doc_fanned = canonical_json(merge_results(fanned, 0.5))
    assert doc_serial == doc_fanned
    assert json.loads(doc_serial)["digest"] == json.loads(doc_fanned)["digest"]
    assert json.loads(doc_serial)["grid"] == {
        "workloads": ["churn"],
        "machines": [4, 6],
        "seeds": [1, 2],
        "sim_minutes": 0.5,
    }


def test_sweep_cli_writes_canonical_output(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "sweep.json"
    args = [
        "sweep", "--sizes", "4", "--seeds", "1", "--workloads", "sequential",
        "--minutes", "0.2", "--out", str(out),
    ]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert "digest" in text
    first = out.read_text()
    assert main(args) == 0
    assert out.read_text() == first  # re-run is byte-identical
