"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.experiments import chaos


def test_demo_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "grants" in out
    assert "n01" in out  # the Gantt rows


def test_single_table_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "rsh' anylinux null" in out


def test_utilization_quick(capsys):
    assert main(["utilization", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "total detected idleness" in out


def test_chaos_command(capsys, tmp_path):
    trace = tmp_path / "chaos.jsonl"
    assert main(["chaos", "--seed", "1", "--verbose", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "jobs completed" in out
    assert "fault plan:" in out
    assert "machine_crash" in out
    assert trace.exists() and trace.stat().st_size > 0


def test_chaos_verdict_is_the_oracles(capsys):
    """Seed 4 completes every job, with a double run on n01."""
    assert main(["chaos", "--seed", "4"]) == 1
    assert "double_run at t=40.688300" in capsys.readouterr().out


def test_chaos_past_its_event_budget_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(chaos, "EVENT_BUDGET", 500)
    assert main(["chaos", "--seed", "1"]) == 1
    assert "stalled at t=" in capsys.readouterr().out
    assert main(["chaos", "--seed", "1-2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["rule"] for line in lines[:2]] == ["stalled"] * 2


def test_chaos_sweep_prints_each_red_run(capsys):
    assert main(["chaos", "--seed", "3-4", "--scenario", "standby"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["rule"] for line in lines[:2]] == ["double_run"] * 2
    assert lines[2] == ""
    assert lines[-1].split() == ["all", "2/2", "100.0%", "[34.2%,", "100.0%]"]


def test_chaos_sweep_of_green_runs_exits_zero():
    assert main(["chaos", "--seed", "1", "--scenario", "all"]) == 0


def test_chaos_sweep_rejects_a_trace(tmp_path):
    with pytest.raises(SystemExit, match="2"):
        main(["chaos", "--seed", "1-2", "--trace", str(tmp_path / "t.json")])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])

