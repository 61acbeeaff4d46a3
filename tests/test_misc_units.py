"""Unit tests for the small supporting modules: calibration, protocol,
workload traces, metrics, hostfile, program registry and rbstat rendering."""

import pytest

from repro.broker import protocol
from repro.broker.modules import (
    expect_marker_path,
    grow_program,
    halt_program,
    shrink_program,
)
from repro.broker.tools import format_status
from repro.calibration import DEFAULT, Calibration
from repro.cluster import Cluster, ClusterSpec
from repro.metrics import UtilizationMeter
from repro.os.programs import NoSuchProgram, ProgramDirectory, resolve
from repro.sim import Environment
from repro.workloads import periodic_sequential_jobs


# -- calibration ----------------------------------------------------------


def test_default_calibration_is_frozen():
    with pytest.raises(Exception):
        DEFAULT.rsh_connect = 1.0  # type: ignore[misc]


def test_calibration_overrides():
    cal = Calibration(sigterm_grace=1.0)
    assert cal.sigterm_grace == 1.0
    assert cal.rsh_connect == DEFAULT.rsh_connect


def test_calibration_values_positive():
    for name, value in vars(DEFAULT).items():
        assert value > 0, name


def test_every_calibration_field_is_read():
    """A knob nothing reads only documents a number: each field must be
    read, as an attribute or by name, by a module outside calibration.py."""
    import ast
    import dataclasses
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    used = set()
    for path in root.rglob("*.py"):
        if path == root / "calibration.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unread = [f.name for f in dataclasses.fields(Calibration) if f.name not in used]
    assert not unread, f"Calibration fields nothing reads: {unread}"


# -- protocol ---------------------------------------------------------------


def test_protocol_messages_carry_type():
    samples = [
        protocol.daemon_hello("h"),
        protocol.daemon_report({}),
        protocol.submit("u", "h", "", ["x"], False),
        protocol.submit_ack(1),
        protocol.machine_request(1, "anylinux", 2, True),
        protocol.machine_grant(2, "h"),
        protocol.machine_denied(2, "no"),
        protocol.revoke("h"),
        protocol.released(1, "h"),
        protocol.job_done(1, 0),
        protocol.rsh_request("h", ["cmd"], "u"),
        protocol.rsh_exec("h", True, "tok"),
        protocol.rsh_fail("r"),
        protocol.subapp_hello("tok", "h", 3),
        protocol.subapp_run(["cmd"]),
        protocol.subapp_started(3),
        protocol.subapp_revoke(),
        protocol.subapp_exit("h", 0),
        protocol.status_request(),
        protocol.status_reply({}),
        protocol.halt_job(1),
        protocol.halt_ack(1, True),
        protocol.halt(),
    ]
    types = [m["type"] for m in samples]
    assert all(types)
    assert len(set(types)) == len(types)  # all distinct


def test_protocol_copies_argv():
    argv = ["a"]
    msg = protocol.submit("u", "h", "", argv, False)
    argv.append("b")
    assert msg["argv"] == ["a"]


# -- module conventions -------------------------------------------------------


def test_module_program_names():
    assert grow_program("pvm") == "pvm_grow"
    assert shrink_program("lam") == "lam_shrink"
    assert halt_program("x") == "x_halt"
    assert expect_marker_path("n07") == "~/.rb_expect_n07"


# -- workload traces ----------------------------------------------------------


def test_periodic_trace_shape():
    env = Environment(seed=5)
    trace = periodic_sequential_jobs(env, period=100.0, horizon=1000.0)
    assert len(trace) == 9  # arrivals at 100..900
    assert trace.arrivals == [100.0 * i for i in range(1, 10)]
    for duration in trace.durations:
        assert 60.0 <= duration <= 600.0


def test_periodic_trace_deterministic_per_seed():
    t1 = periodic_sequential_jobs(Environment(seed=5), horizon=2000.0)
    t2 = periodic_sequential_jobs(Environment(seed=5), horizon=2000.0)
    t3 = periodic_sequential_jobs(Environment(seed=6), horizon=2000.0)
    assert t1.durations == t2.durations
    assert t1.durations != t3.durations


def test_periodic_trace_validation():
    env = Environment()
    with pytest.raises(ValueError):
        periodic_sequential_jobs(env, period=0.0)
    with pytest.raises(ValueError):
        periodic_sequential_jobs(env, min_minutes=5, max_minutes=1)


# -- metrics -----------------------------------------------------------------


def test_utilization_meter_all_idle():
    cluster = Cluster(ClusterSpec.uniform(2))
    meter = UtilizationMeter(cluster, ["n00", "n01"])
    meter.start()
    cluster.env.run(until=10.0)
    assert meter.idleness() == pytest.approx(1.0)


def test_utilization_meter_counts_busy_machines():
    cluster = Cluster(ClusterSpec.uniform(2))
    meter = UtilizationMeter(cluster, ["n00", "n01"])
    proc = cluster.run_command("n00", ["compute", "5.0"])
    meter.start()
    start = cluster.now
    cluster.env.run(until=start + 10.0)
    by_host = meter.utilization_by_host()
    assert by_host["n00"] > 0.4
    assert by_host["n01"] == pytest.approx(0.0)
    assert 0.2 <= meter.utilization() <= 0.3


def test_utilization_meter_requires_start():
    cluster = Cluster(ClusterSpec.uniform(1))
    with pytest.raises(RuntimeError):
        UtilizationMeter(cluster).utilization()


def test_utilization_meter_empty_hosts_is_zero():
    # Regression: an empty host set used to raise ZeroDivisionError.
    cluster = Cluster(ClusterSpec.uniform(1))
    meter = UtilizationMeter(cluster, hosts=[])
    meter.start()
    cluster.env.run(until=1.0)
    assert meter.utilization() == 0.0
    assert meter.idleness() == 1.0


# -- program registry ---------------------------------------------------------


def test_path_order_shadows_names():
    first = ProgramDirectory("first")
    second = ProgramDirectory("second")

    def a(proc):
        yield

    def b(proc):
        yield

    first.register("tool", a)
    second.register("tool", b)
    assert resolve([first, second], "tool") is a
    assert resolve([second, first], "tool") is b


def test_qualified_names_bypass_path_order():
    first = ProgramDirectory("first")
    second = ProgramDirectory("second")

    def a(proc):
        yield

    def b(proc):
        yield

    first.register("tool", a)
    second.register("tool", b)
    assert resolve([first, second], "second:tool") is b


def test_resolve_missing_program():
    directory = ProgramDirectory("d")
    with pytest.raises(NoSuchProgram):
        resolve([directory], "nope")
    with pytest.raises(NoSuchProgram):
        resolve([directory], "other:prog")


def test_register_rejects_colon_names():
    directory = ProgramDirectory("d")
    with pytest.raises(ValueError):
        directory.register("a:b", lambda proc: iter(()))


def test_register_rejects_non_callable():
    directory = ProgramDirectory("d")
    with pytest.raises(TypeError):
        directory.register("x", 42)


def test_directory_contains_and_names():
    directory = ProgramDirectory("d")
    directory.register("b", lambda proc: iter(()))
    directory.register("a", lambda proc: iter(()))
    assert "a" in directory and "c" not in directory
    assert list(directory.names()) == ["a", "b"]


# -- rbstat rendering ---------------------------------------------------------


def test_format_status_renders_all_sections():
    summary = {
        "machines": {
            "n00": {
                "allocated_to": 1,
                "state": "active",
                "console_active": False,
                "load": 2,
            }
        },
        "jobs": {
            1: {
                "user": "ann",
                "adaptive": True,
                "module": None,
                "holdings": 1,
                "done": False,
            }
        },
        "pending": 3,
    }
    text = format_status(summary)
    assert "n00: allocated_to=1 state=active load=2" in text
    assert "job 1: user=ann adaptive=True" in text
    assert "pending requests: 3" in text
