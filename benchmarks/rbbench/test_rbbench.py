"""Smoke-scale self-test of rbbench: ``pytest benchmarks/rbbench``.

Not part of the tier-1 ``testpaths``.  Runs every workload at ``--smoke``
scale (64 machines x 1 sim-min, 300 submissions, 3 seeds, tables without
utilization) in a process of its own, as the driver does.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Metrics measured on the host clock; everything else is exact for a seed.
HOST_SIDE = re.compile(
    r".*\.self_share|bench\..*|sim\.us_per_event|sim\.scale_ratio_1024_over_64"
)


def run_smoke(workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0"]
    command += ["--workload", workload, "--seed", "3", "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1
    return result


def names(section: str) -> set:
    return {metric["name"] for metric in DECLARED[section]}


def test_declared_names_are_well_formed():
    sys.path.insert(0, str(HERE))
    import run

    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    assert DECLARED["run_seconds"] == run.DEFAULT_SECONDS
    declared = WORKLOADS + sorted(names("end_to_end") | names("per_layer"))
    assert all(NAME.fullmatch(name) for name in declared)
    assert len(set(declared)) == len(declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_the_declared_ones(workload):
    result = run_smoke(workload, trace=0)
    assert set(result["metrics"]) == names("end_to_end")
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0
    if workload == "chaos-sweep":
        # Scenario seeds are drawn from those that pass at this commit.
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_declared_and_exact_ones_repeat(workload):
    first = run_smoke(workload, trace=1)
    second = run_smoke(workload, trace=1)
    assert set(first["metrics"]) == names("per_layer")
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    shares = 0.0
    for name, metric in first["metrics"].items():
        assert metric["unit"] == units[name]
        if name.endswith(".self_share"):
            shares += metric["value"]
        if not HOST_SIDE.fullmatch(name):
            assert metric == second["metrics"][name], name
    assert abs(shares - 1.0) <= 0.001
    assert (first["attempted"], first["failed"]) == (
        second["attempted"],
        second["failed"],
    )


def test_refuses_to_run_without_the_program(tmp_path):
    lone = tmp_path / "benchmarks" / "rbbench"
    lone.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (lone / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, str(lone / "run.py"), "--workload", "soak-12"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_a_scenario_that_raises_is_a_failed_operation(monkeypatch):
    sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]
    import timing
    import workloads

    real = workloads.run_chaos

    def raising(seed, **kwargs):
        if kwargs.get("standby"):
            raise RuntimeError("a process cannot abort itself")
        return real(seed, **kwargs)

    monkeypatch.setattr(workloads, "run_chaos", raising)
    rep = workloads.chaos_sweep(11, True, timing.Stopwatch(), timing.Stopwatch())
    assert rep.attempted == 9
    crashed = [line for line in rep.failures if "crashed: RuntimeError" in line]
    assert len(crashed) == 3 and rep.failed >= 3


def test_a_harness_error_is_a_traceback_not_a_signal():
    # An exception while the 100 Hz sampler runs must not leave the timer
    # armed at interpreter shutdown: that ends the process with SIGALRM.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run, timing\n"
        "def boom(self): raise ValueError('boom')\n"
        "timing.Stopwatch.__enter__ = boom\n"
        "run.run_one('soak-12', 1, 0.0, False, True)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(HERE)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1, done.returncode
    assert "ValueError: boom" in done.stderr
