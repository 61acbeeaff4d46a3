"""Unit tests for simulated OS processes: lifecycle, signals, environment."""

import math

import pytest

from repro.cluster.network import Network
from repro.os import (
    SIGKILL,
    SIGTERM,
    Machine,
    NoSuchProgram,
    OSProcess,
    ProcessStatus,
)
from repro.os.process import PermissionError_
from repro.os.programs import ProgramDirectory
from repro.sim import Environment, Interrupt
from repro.workloads import install_churn


@pytest.fixture
def rig():
    env = Environment()
    network = Network(env)
    machine = Machine(env, "host0")
    network.add_machine(machine)
    directory = ProgramDirectory("system")
    machine.path = [directory]
    return env, machine, directory


def start(machine, argv, uid="user", **kw):
    return OSProcess(machine, argv, uid=uid, environ={"HOME": f"/home/{uid}"}, **kw)


def test_simple_program_exit_zero(rig):
    env, machine, directory = rig

    @directory.register("hello")
    def hello(proc):
        yield proc.sleep(1.0)
        return 0

    proc = start(machine, ["hello"])
    env.run()
    assert proc.exit_code == 0
    assert proc.status is ProcessStatus.EXITED
    assert not proc.is_alive


def test_exit_code_from_return_value(rig):
    env, machine, directory = rig

    @directory.register("fail")
    def fail(proc):
        yield proc.sleep(0.1)
        return 3

    proc = start(machine, ["fail"])
    env.run()
    assert proc.exit_code == 3


def test_startup_delay_applies(rig):
    env, machine, directory = rig
    times = {}

    @directory.register("t")
    def t(proc):
        times["start"] = proc.env.now
        yield proc.sleep(0)

    start(machine, ["t"], startup_delay=0.5)
    env.run()
    assert times["start"] == pytest.approx(0.5)


def test_unknown_program_raises(rig):
    env, machine, directory = rig
    with pytest.raises(NoSuchProgram):
        start(machine, ["no-such-binary"])


def test_process_registered_then_removed_from_table(rig):
    env, machine, directory = rig

    @directory.register("p")
    def p(proc):
        yield proc.sleep(2.0)

    proc = start(machine, ["p"])
    assert machine.procs[proc.pid] is proc
    env.run()
    assert proc.pid not in machine.procs


def test_spawn_inherits_environment_copy(rig):
    env, machine, directory = rig
    seen = {}

    @directory.register("child")
    def child(proc):
        seen["env"] = dict(proc.environ)
        seen["uid"] = proc.uid
        yield proc.sleep(0)

    @directory.register("parent")
    def parent(proc):
        proc.environ["RB_APP_PORT"] = "40001"
        kid = proc.spawn(["child"])
        yield proc.wait(kid)
        # Mutating the child env must not leak back.
        assert "CHILD_ONLY" not in proc.environ

    p = start(machine, ["parent"], uid="alice")
    env.run()
    assert seen["env"]["RB_APP_PORT"] == "40001"
    assert seen["env"]["HOME"] == "/home/alice"
    assert seen["uid"] == "alice"
    assert p.exit_code == 0


def test_spawn_without_inheritance(rig):
    env, machine, directory = rig
    seen = {}

    @directory.register("child")
    def child(proc):
        seen["env"] = dict(proc.environ)
        yield proc.sleep(0)

    @directory.register("parent")
    def parent(proc):
        proc.environ["SECRET"] = "x"
        kid = proc.spawn(["child"], inherit_env=False, environ={"A": "1"})
        yield proc.wait(kid)

    start(machine, ["parent"])
    env.run()
    assert seen["env"] == {"A": "1"}


def test_wait_returns_child_exit_code(rig):
    env, machine, directory = rig
    result = {}

    @directory.register("child")
    def child(proc):
        yield proc.sleep(1.0)
        return 7

    @directory.register("parent")
    def parent(proc):
        kid = proc.spawn(["child"])
        result["code"] = yield proc.wait(kid)

    start(machine, ["parent"])
    env.run()
    assert result["code"] == 7


def test_sigterm_uncaught_kills_with_negative_code(rig):
    env, machine, directory = rig

    @directory.register("victim")
    def victim(proc):
        yield proc.sleep(100.0)

    proc = start(machine, ["victim"])

    def killer():
        yield env.timeout(1.0)
        proc.signal(SIGTERM)

    env.process(killer())
    death_time = {}
    proc.terminated.add_callback(lambda ev: death_time.setdefault("t", env.now))
    env.run()
    assert proc.exit_code == -15
    assert proc.status is ProcessStatus.KILLED
    assert death_time["t"] == pytest.approx(1.0)


def test_sigterm_caught_allows_cleanup(rig):
    env, machine, directory = rig
    log = []

    @directory.register("graceful")
    def graceful(proc):
        try:
            yield proc.sleep(100.0)
        except Interrupt as intr:
            log.append(str(intr.cause))
            yield proc.sleep(0.5)  # cleanup work
            return 0

    proc = start(machine, ["graceful"])

    def killer():
        yield env.timeout(1.0)
        proc.signal(SIGTERM)

    env.process(killer())
    death_time = {}
    proc.terminated.add_callback(lambda ev: death_time.setdefault("t", env.now))
    env.run()
    assert log == ["SIGTERM"]
    assert proc.exit_code == 0
    assert death_time["t"] == pytest.approx(1.5)


def test_sigkill_is_immediate_and_uncatchable(rig):
    env, machine, directory = rig

    @directory.register("stubborn")
    def stubborn(proc):
        while True:
            try:
                yield proc.sleep(10.0)
            except Interrupt:
                pass  # ignores everything

    proc = start(machine, ["stubborn"])

    def killer():
        yield env.timeout(1.0)
        proc.signal(SIGKILL)

    env.process(killer())
    env.run(until=50.0)
    assert proc.exit_code == -9
    assert proc.status is ProcessStatus.KILLED


def test_sigterm_during_startup_terminates_cleanly(rig):
    """A signal arriving while the process is still "exec-ing" (inside its
    startup delay, before the body installed any handler) terminates it with
    the conventional exit code — it must not count as a crash."""
    env, machine, directory = rig
    ran = {}

    @directory.register("t")
    def t(proc):
        ran["body"] = True
        yield proc.sleep(1.0)

    proc = start(machine, ["t"], startup_delay=1.0)

    def killer():
        yield env.timeout(0.5)
        proc.signal(SIGTERM)

    env.process(killer())
    env.run()
    assert ran == {}  # the body never started
    assert proc.status is ProcessStatus.KILLED
    assert proc.exit_code == -int(SIGTERM)
    assert machine.network.crashed == []


def test_signal_cross_uid_denied(rig):
    env, machine, directory = rig

    @directory.register("victim")
    def victim(proc):
        yield proc.sleep(100.0)

    @directory.register("attacker")
    def attacker(proc):
        yield proc.sleep(1.0)

    v = start(machine, ["victim"], uid="alice")
    a = start(machine, ["attacker"], uid="mallory")
    with pytest.raises(PermissionError_):
        v.signal(SIGTERM, sender=a)
    assert v.is_alive


def test_signal_same_uid_allowed(rig):
    env, machine, directory = rig

    @directory.register("victim")
    def victim(proc):
        yield proc.sleep(100.0)

    @directory.register("killer")
    def killer(proc):
        yield proc.sleep(0)

    v = start(machine, ["victim"], uid="alice")
    k = start(machine, ["killer"], uid="alice")
    assert v.signal(SIGTERM, sender=k) is True


def test_signal_dead_process_returns_false(rig):
    env, machine, directory = rig

    @directory.register("quick")
    def quick(proc):
        yield proc.sleep(0.1)

    proc = start(machine, ["quick"])
    env.run()
    assert proc.signal(SIGTERM) is False


def test_kill_tree_reaches_descendants(rig):
    env, machine, directory = rig

    @directory.register("leaf")
    def leaf(proc):
        yield proc.sleep(1000.0)

    @directory.register("mid")
    def mid(proc):
        proc.spawn(["leaf"])
        yield proc.sleep(1000.0)

    @directory.register("top")
    def top(proc):
        proc.spawn(["mid"])
        yield proc.sleep(1000.0)

    root = start(machine, ["top"])

    def killer():
        yield env.timeout(5.0)
        count = root.kill_tree(SIGKILL)
        assert count == 3

    env.process(killer())
    env.run(until=10.0)
    assert not machine.procs  # everything dead


def test_compute_cancelled_on_death(rig):
    env, machine, directory = rig

    @directory.register("burner")
    def burner(proc):
        yield proc.compute(1000.0)

    proc = start(machine, ["burner"])

    def killer():
        yield env.timeout(1.0)
        proc.signal(SIGKILL)

    env.process(killer())
    env.run(until=5.0)
    assert machine.cpu.load == 0


def test_crash_recorded_on_network(rig):
    env, machine, directory = rig

    @directory.register("buggy")
    def buggy(proc):
        yield proc.sleep(0.1)
        raise ValueError("bug")

    proc = start(machine, ["buggy"])
    env.run()
    assert proc.status is ProcessStatus.CRASHED
    assert proc.exit_code == 1
    assert machine.network.crashed == [proc]
    assert isinstance(proc.exception, ValueError)


def test_file_helpers_expand_home(rig):
    env, machine, directory = rig

    @directory.register("writer")
    def writer(proc):
        proc.write_file("~/.hosts", "anylinux\n")
        proc.append_file("$HOME/.hosts", "node07\n")
        yield proc.sleep(0)
        return 0

    start(machine, ["writer"], uid="bob")
    env.run()
    assert machine.fs.read("/home/bob/.hosts") == "anylinux\nnode07\n"


def test_empty_argv_rejected(rig):
    env, machine, directory = rig
    with pytest.raises(ValueError):
        OSProcess(machine, [], uid="u")


def test_pids_are_unique_and_increasing(rig):
    env, machine, directory = rig

    @directory.register("p")
    def p(proc):
        yield proc.sleep(1.0)

    procs = [start(machine, ["p"]) for _ in range(5)]
    pids = [p_.pid for p_ in procs]
    assert pids == sorted(pids)
    assert len(set(pids)) == 5


def test_machine_snapshot_fields(rig):
    env, machine, directory = rig

    @directory.register("p")
    def p(proc):
        yield proc.compute(10.0)

    start(machine, ["p"])
    env.run(until=1.0)
    snap = machine.snapshot()
    assert snap["host"] == "host0"
    assert snap["cpu_load"] == 1
    assert snap["n_processes"] == 1
    assert snap["platform"] == "i686linux"
    assert snap["console_active"] is False


def test_crashing_thread_crashes_the_process_with_its_own_exception(rig):
    """The thread that raises finalizes the process from inside its own
    generator; it must not try to abort itself, which used to replace the
    fault by ``RuntimeError: a process cannot abort itself`` out of
    ``env.run``."""
    env, machine, directory = rig
    log = []

    @directory.register("twothreads")
    def twothreads(proc):
        def steady():
            try:
                yield proc.sleep(60.0)
            finally:
                log.append(("steady torn down", env.now))

        def faulty():
            yield proc.sleep(1.0)
            log.append(("faulty raises", env.now))
            raise KeyError("lost allocation")

        proc.thread(steady(), name="steady")
        proc.thread(faulty(), name="faulty")
        yield proc.sleep(60.0)
        return 0

    proc = start(machine, ["twothreads"])
    env.run()  # nothing escapes
    assert proc.status is ProcessStatus.CRASHED
    assert proc.exit_code == 1
    assert isinstance(proc.exception, KeyError)
    assert proc.exception.args == ("lost allocation",)
    assert machine.network.crashed == [proc]
    crashed_at = log[0][1]
    assert log == [("faulty raises", crashed_at), ("steady torn down", crashed_at)]
    assert proc.terminated.value == 1 and env.now == crashed_at
    assert proc.pid not in machine.procs


@pytest.mark.parametrize("sig", [SIGTERM, SIGKILL])
def test_signal_between_body_return_and_exit_dispatch_finds_it_dead(rig, sig):
    """The victim's body returns at t=1.0; its exit event is queued behind
    the killer's wake-up at the same instant, so the killer signals a
    process still marked RUNNING whose generator is gone.  That used to
    raise ``RuntimeError: ... has already terminated`` in the sender."""
    env, machine, directory = rig
    seen = {}

    @directory.register("victim")
    def victim(proc):
        yield proc.sleep(1.0)
        return 7

    @directory.register("killer")
    def killer(proc):
        yield proc.sleep(1.0)
        target = seen["victim"]
        seen["status"] = target.status
        seen["body_alive"] = target._sim_process.is_alive
        seen["delivered"] = target.signal(sig, sender=proc)
        return 0

    seen["victim"] = start(machine, ["victim"], startup_delay=0.0)
    sender = start(machine, ["killer"], startup_delay=0.0)
    env.run()
    assert seen["status"] is ProcessStatus.RUNNING and not seen["body_alive"]
    assert seen["delivered"] is False
    assert sender.status is ProcessStatus.EXITED and sender.exit_code == 0
    assert seen["victim"].status is ProcessStatus.EXITED
    assert seen["victim"].exit_code == 7
    assert machine.network.crashed == []


# -- open-ended bursts: compute(math.inf) -------------------------------------


def test_open_ended_burst_leaves_the_cpu_on_sigkill_and_on_normal_exit(rig):
    env, machine, directory = rig

    @directory.register("hog")
    def hog(proc):
        yield proc.compute(math.inf)

    @directory.register("leaver")
    def leaver(proc):
        proc.compute(math.inf)  # started, never waited for
        yield proc.sleep(2.0)
        return 0

    killed = start(machine, ["hog"], startup_delay=0.0)
    left = start(machine, ["leaver"], startup_delay=0.0)
    env.run(until=1.0)
    assert machine.cpu.load == 2
    killed.signal(SIGKILL)
    assert machine.cpu.load == 1
    env.run()  # nothing keeps the clock running once ``leaver`` is gone
    assert (killed.exit_code, left.exit_code) == (-9, 0)
    assert machine.cpu.load == 0
    assert env.now == 2.0
    assert env.heap_stats()["pending"] == 0


def test_gracespin_holds_the_cpu_through_its_adaptive_shutdown(rig):
    env, machine, directory = rig
    install_churn(directory)
    proc = start(machine, ["gracespin"])
    env.run(until=10.0)
    assert machine.cpu.load == 1
    assert machine.cpu.utilization() > 0.99
    proc.signal(SIGTERM)
    shutdown = machine.network.calibration.adaptive_shutdown
    env.run(until=10.0 + 0.99 * shutdown)
    assert proc.is_alive and machine.cpu.load == 1
    env.run()
    assert proc.status is ProcessStatus.EXITED and proc.exit_code == 0
    assert env.now == pytest.approx(10.0 + shutdown)
    assert machine.cpu.load == 0


def test_ignoring_signals_re_yields_the_same_burst_at_load_one(rig):
    """The idiom of ``OSProcess.compute``'s docstring: an Interrupt takes
    the waiter off the burst, not the burst off the CPU, so a program that
    swallows the signal waits for the *same* event again."""
    env, machine, directory = rig
    swallowed = []
    loads = []

    @directory.register("stubborn")
    def stubborn(proc):
        burst = proc.compute(math.inf)
        while True:
            try:
                yield burst
            except Interrupt:
                swallowed.append(env.now)

    proc = start(machine, ["stubborn"])

    def pester():
        for _ in range(3):
            yield env.timeout(1.0)
            proc.signal(SIGTERM)
            loads.append(machine.cpu.load)
            yield env.timeout(0.25)
            loads.append(machine.cpu.load)

    env.process(pester())
    env.run(until=10.0)
    assert len(swallowed) == 3 and proc.is_alive
    assert loads == [1] * 6
    assert machine.cpu.utilization() > 0.99
    proc.signal(SIGKILL)
    assert machine.cpu.load == 0
