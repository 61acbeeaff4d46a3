"""Network fault model: partitions, lossy windows, latency spikes, sever."""

import random
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.cluster.network import Network
from repro.faults.netfaults import NetworkFaults, install
from repro.os import ConnectionClosed, ConnectionRefused, Machine, OSProcess
from repro.os.programs import ProgramDirectory
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


def boot(network, host, argv, uid="user"):
    return OSProcess(
        network.machines[host], argv, uid=uid, environ={}, startup_delay=0.0
    )


def _echo_pair(env, network, directory, log):
    """Server on a, client on b; client sends forever every 1s."""

    @directory.register("server")
    def server(proc):
        listener = proc.listen(5000)
        conn = yield listener.accept()
        try:
            while True:
                msg = yield conn.recv()
                log.append((env.now, msg))
        except ConnectionClosed:
            return 0

    @directory.register("client")
    def client(proc):
        conn = yield proc.connect("a", 5000)
        for i in range(20):
            try:
                conn.send({"type": "tick", "i": i})
            except ConnectionClosed:
                return 1
            yield proc.sleep(1.0)
        return 0

    boot(network, "a", ["server"])
    boot(network, "b", ["client"])


def test_install_is_idempotent(rig):
    env, network, directory = rig
    faults = install(network)
    assert isinstance(faults, NetworkFaults)
    assert install(network) is faults


def test_partition_drops_sends_and_expires(rig):
    env, network, directory = rig
    log = []
    _echo_pair(env, network, directory, log)
    faults = install(network)

    def partitioner():
        yield env.timeout(4.5)
        faults.add_partition(["b"], duration=5.0)

    env.process(partitioner())
    env.run()
    received = [m["i"] for _, m in log]
    # Ticks 5..9 fall inside the window [4.5, 9.5) and vanish; the rest
    # arrive, because the window expires without anyone "healing" anything.
    assert 4 in received and 10 in received
    assert not any(i in received for i in (5, 6, 7, 8, 9))
    assert network.metrics.counter("net.partition_drops").value == 5


def test_partition_refuses_new_connects(rig):
    env, network, directory = rig
    outcome = {}
    faults = install(network)
    faults.add_partition(["b"], duration=10.0)

    @directory.register("server")
    def server(proc):
        proc.listen(5000)
        yield proc.sleep(20.0)

    @directory.register("client")
    def client(proc):
        try:
            yield proc.connect("a", 5000)
        except ConnectionRefused:
            outcome["refused_at"] = env.now
        try:
            yield proc.sleep(11.0)
            yield proc.connect("a", 5000)
            outcome["connected_after"] = True
        except ConnectionRefused:
            pass

    boot(network, "a", ["server"])
    boot(network, "b", ["client"])
    env.run()
    assert "refused_at" in outcome
    assert outcome.get("connected_after") is True
    assert network.metrics.counter("net.partition_refused").value == 1


def test_partition_does_not_cut_same_side_hosts(rig):
    env, network, directory = rig
    faults = install(network)
    faults.add_partition(["a", "b"], duration=10.0)
    # Both hosts are on the same side of the cut: traffic flows.
    assert not faults.partitioned("a", "b")
    assert faults.partitioned("a", None)  # vs. everyone else


def test_drop_rule_filters_by_message_type(rig):
    env, network, directory = rig
    faults = install(network)
    faults.add_drop_rule(10.0, probability=1.0, only_types=("heartbeat",))
    assert faults.should_drop("a", "b", {"type": "heartbeat"})
    assert not faults.should_drop("a", "b", {"type": "data"})
    assert not faults.should_drop("a", "b", "not-a-dict")


def test_drop_rule_probability_draws_from_named_stream(rig):
    env, network, directory = rig
    faults = install(network)
    faults.add_drop_rule(1000.0, probability=0.5)
    outcomes = [faults.should_drop("a", "b", {"type": "x"}) for _ in range(200)]
    dropped = sum(outcomes)
    assert 50 < dropped < 150  # not all, not none

    # Same seed => same drop decisions (the stream is seed-derived).
    env2 = Environment(seed=env.rng.seed)
    network2 = Network(env2)
    faults2 = install(network2)
    faults2.add_drop_rule(1000.0, probability=0.5)
    outcomes2 = [
        faults2.should_drop("a", "b", {"type": "x"}) for _ in range(200)
    ]
    assert outcomes == outcomes2


def test_latency_spike_multiplies_and_expires(rig):
    env, network, directory = rig
    faults = install(network)
    base = network.latency
    faults.add_latency_spike(5.0, factor=10.0)
    assert faults.latency(base) == pytest.approx(base * 10.0)

    def later():
        yield env.timeout(6.0)
        assert faults.latency(base) == pytest.approx(base)

    env.process(later())
    env.run()


def test_fault_drops_are_counted(rig):
    env, network, directory = rig
    log = []
    _echo_pair(env, network, directory, log)
    faults = install(network)

    def dropper():
        yield env.timeout(2.5)
        faults.add_drop_rule(3.0, probability=1.0, only_types=("tick",))

    env.process(dropper())
    env.run()
    received = [m["i"] for _, m in log]
    assert 2 in received and 6 in received
    assert 3 not in received and 4 not in received
    assert network.metrics.counter("net.fault_drops").value == 3


def test_sever_closes_cross_cut_connections(rig):
    env, network, directory = rig
    log = []
    _echo_pair(env, network, directory, log)
    faults = install(network)

    def severer():
        yield env.timeout(3.5)
        faults.add_partition(["b"], duration=1000.0)
        count = network.sever(faults.partitioned)
        log.append((env.now, {"type": "severed", "i": count}))

    env.process(severer())
    env.run()
    severed = [m for _, m in log if m["type"] == "severed"]
    assert severed and severed[0]["i"] == 1
    # Both sides saw EOF: the client stopped sending long before tick 19.
    ticks = [m["i"] for _, m in log if m["type"] == "tick"]
    assert max(ticks) == 3
    assert network.metrics.counter("net.severed_connections").value == 1


def test_rule_verdicts_match_a_brute_force_reference():
    """Every verdict, and every ``faults.net`` draw, is what checking each
    rule ever added against the clock on every query gives."""
    rng = random.Random(11)
    hosts = ["a", "b", "c", "d", None]
    durations = [0.0, 0.1, 0.3, 1.0, 2.5, 10.0]
    tested, reference = Environment(seed=3), Environment(seed=3)
    faults = NetworkFaults(SimpleNamespace(env=tested))
    draws = reference.rng.stream("faults.net")
    partitions, links, drops, spikes = [], [], [], []
    verdicts = Counter()

    def expected(now, a, b, message):
        cut = any(r.cuts(a, b) for r in partitions + links if r.until > now)
        dropped = False
        for rule in drops:
            if rule.until > now and rule.matches(message):
                if rule.probability >= 1.0 or (
                    float(draws.uniform(0.0, 1.0)) < rule.probability
                ):
                    dropped = True
                    break
        latency = 0.25
        for rule in spikes:
            if rule.until > now:
                latency *= rule.factor
        return cut, dropped, latency

    now = 0.0
    for _ in range(3000):
        now += rng.choice([0.0, 0.05, 0.1, 0.5])
        tested.run(until=now)
        reference.run(until=now)
        roll = rng.random()
        duration = rng.choice(durations)
        if roll < 0.03:
            hosts_cut = rng.sample(["a", "b", "c", "d"], rng.randint(1, 3))
            partitions.append(faults.add_partition(hosts_cut, duration))
        elif roll < 0.05:
            links.append(faults.add_link_block(*rng.sample(hosts[:4], 2), duration))
        elif roll < 0.08:
            drops.append(faults.add_drop_rule(
                duration,
                probability=rng.choice([0.3, 0.7, 1.0]),
                only_types=rng.choice([None, ("tick",), ("tock", "beat")]),
            ))
        elif roll < 0.10:
            spikes.append(faults.add_latency_spike(duration, rng.choice([1.5, 3.0])))
        else:
            a, b = rng.choice(hosts), rng.choice(hosts)
            message = {"type": rng.choice(["tick", "tock", "beat", "other"])}
            got = (
                faults.partitioned(a, b),
                faults.should_drop(a, b, message),
                faults.latency(0.25),
            )
            assert got == expected(now, a, b, message), now
            verdicts.update(name for name, hit in zip(("cut", "drop"), got) if hit)
    assert verdicts["cut"] > 100 and verdicts["drop"] > 100
    assert faults._rng.uniform() == draws.uniform()  # as many draws
    # Past every expiry, the queries drop every rule.
    tested.run(until=now + 20.0)
    assert not faults.partitioned("a", "b")
    assert not faults.should_drop("a", "b", {"type": "tick"})
    assert faults.latency(0.25) == 0.25
    assert faults._partitions == faults._links == faults._drops == faults._spikes == []
