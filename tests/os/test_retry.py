"""connect_with_backoff: boot-time connects survive a slow-starting server."""

from dataclasses import replace

import pytest

from repro.cluster.network import Network
from repro.os import ConnectionRefused, Machine, OSProcess
from repro.os.programs import ProgramDirectory
from repro.os.retry import connect_with_backoff
from repro.sim import Environment


@pytest.fixture
def rig():
    env = Environment()
    network = Network(env)
    directory = ProgramDirectory("system")
    for name in ("a", "b"):
        machine = Machine(env, name)
        machine.path = [directory]
        network.add_machine(machine)
    return env, network, directory


def set_backoff(network, base, cap):
    network.calibration = replace(
        network.calibration, connect_retry_base=base, connect_retry_cap=cap
    )


def boot(network, host, argv):
    return OSProcess(
        network.machines[host], argv, uid="user", environ={}, startup_delay=0.0
    )


def test_retries_until_server_listens(rig):
    env, network, directory = rig
    outcome = {}

    @directory.register("lateserver")
    def lateserver(proc):
        yield proc.sleep(0.5)  # not listening yet on the client's first try
        listener = proc.listen(7000)
        yield listener.accept()
        yield proc.sleep(1.0)

    @directory.register("client")
    def client(proc):
        counter = network.metrics.counter("test.retries")
        conn = yield from connect_with_backoff(proc, ["a"], 7000, counter=counter)
        outcome["connected_at"] = env.now
        outcome["retries"] = counter.value
        conn.close()

    boot(network, "a", ["lateserver"])
    boot(network, "b", ["client"])
    env.run()
    assert outcome["connected_at"] < 2.0
    assert outcome["retries"] >= 1


def test_gives_up_after_bounded_attempts(rig):
    env, network, directory = rig
    outcome = {}

    @directory.register("client")
    def client(proc):
        try:
            yield from connect_with_backoff(proc, ["a"], 7000, attempts=3)
        except ConnectionRefused:
            outcome["gave_up_at"] = env.now

    set_backoff(network, base=0.1, cap=10.0)
    boot(network, "b", ["client"])
    env.run()
    # Two sleeps between three attempts: 0.1 + 0.2, plus connect latencies.
    assert outcome["gave_up_at"] == pytest.approx(0.3, abs=0.1)


def test_clean_first_connect_counts_no_retries(rig):
    env, network, directory = rig
    outcome = {}

    @directory.register("server")
    def server(proc):
        listener = proc.listen(7000)
        yield listener.accept()
        yield proc.sleep(1.0)

    @directory.register("client")
    def client(proc):
        counter = network.metrics.counter("test.retries")
        conn = yield from connect_with_backoff(proc, ["a"], 7000, counter=counter)
        outcome["retries"] = counter.value
        conn.close()

    boot(network, "a", ["server"])
    boot(network, "b", ["client"])
    env.run()
    assert outcome["retries"] == 0


def test_a_round_dials_every_host_before_sleeping(rig):
    """Both candidates are dialled before the first backoff, and the
    counter counts rounds slept, not hosts dialled."""
    env, network, directory = rig
    dials, outcome = [], {}

    real_connect = network.connect

    def connect(proc, host, port):
        dials.append((host, env.now))
        return real_connect(proc, host, port)

    network.connect = connect

    @directory.register("client")
    def client(proc):
        counter = network.metrics.counter("test.retries")
        try:
            yield from connect_with_backoff(
                proc, ["a", "b"], 7000, attempts=3, counter=counter
            )
        except ConnectionRefused:
            outcome["retries"] = counter.value

    set_backoff(network, base=1.0, cap=10.0)
    boot(network, "b", ["client"])
    env.run()
    assert [host for host, _at in dials] == ["a", "b"] * 3
    # Each round's two dials land before that round's sleep: rounds start
    # at 0, 1 and 3 (sleeps of 1 then 2), plus connect latencies.
    times = [at for _host, at in dials]
    for start, first, second in zip((0.0, 1.0, 3.0), times[::2], times[1::2]):
        assert start <= first <= second < start + 0.5
    assert outcome["retries"] == 2


def test_kill_mid_backoff_cancels_the_armed_timer(rig):
    """A process dying mid-backoff must not leave its timer live in the
    heap: the sleep is cancelled on the way out, so the simulation ends at
    the kill, not after the (long) backoff expires."""
    env, network, directory = rig

    @directory.register("client")
    def client(proc):
        yield from connect_with_backoff(proc, ["a"], 7000, attempts=5)

    from repro.os.signals import SIGKILL

    set_backoff(network, base=100.0, cap=100.0)
    proc = boot(network, "b", ["client"])
    env.run(until=1.0)  # first connect refused; now deep in a 100s backoff
    assert proc.is_alive
    proc.signal(SIGKILL)
    env.run()
    assert env.now < 100.0  # the cancelled backoff never held the sim open
    stats = env.heap_stats()
    assert stats["pending"] - stats["dead_pending"] == 0
