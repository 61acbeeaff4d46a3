"""Unit tests for Store, FilterStore and Resource."""

import pytest

from repro.sim import Environment, FilterStore, Resource, Store, StoreFull


@pytest.fixture
def env():
    return Environment()


def test_put_then_get(env):
    store = Store(env)

    def proc():
        yield store.put("x")
        item = yield store.get()
        return item

    assert env.run(env.process(proc())) == "x"


def test_get_blocks_until_put(env):
    store = Store(env)
    log = []

    def consumer():
        item = yield store.get()
        log.append((env.now, item))

    def producer():
        yield env.timeout(5.0)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [(5.0, "late")]


def test_fifo_ordering(env):
    store = Store(env)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    def producer():
        for item in (1, 2, 3):
            yield store.put(item)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [1, 2, 3]


def test_capacity_blocks_putter(env):
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("a stored", env.now))
        yield store.put("b")
        log.append(("b stored", env.now))

    def consumer():
        yield env.timeout(10.0)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [("a stored", 0.0), ("b stored", 10.0)]


def test_put_nowait_raises_when_full(env):
    store = Store(env, capacity=2)
    store.put_nowait(1)
    store.put_nowait(2)
    with pytest.raises(StoreFull):
        store.put_nowait(3)


def test_zero_capacity_rejected(env):
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_len_reflects_buffer(env):
    store = Store(env)
    store.put_nowait("a")
    store.put_nowait("b")
    assert len(store) == 2


def test_cancel_pending_get(env):
    store = Store(env)
    get_event = store.get()
    store.cancel(get_event)
    store.put_nowait("x")
    # The cancelled getter must not consume the item.
    assert list(store.items) == ["x"]


def test_multiple_getters_fifo(env):
    store = Store(env)
    order = []

    def getter(name):
        item = yield store.get()
        order.append((name, item))

    env.process(getter("first"))
    env.process(getter("second"))

    def producer():
        yield env.timeout(1.0)
        yield store.put("a")
        yield store.put("b")

    env.process(producer())
    env.run()
    assert order == [("first", "a"), ("second", "b")]


def test_putter_queue_exists_only_after_a_put_had_to_wait(env):
    unbounded = Store(env)
    for item in range(5):
        assert unbounded.put(item).triggered
    unbounded.get()
    unbounded.cancel(unbounded.put("x"))  # cancelling a stored put: no-op
    assert unbounded._putters is None
    assert list(unbounded.items) == [1, 2, 3, 4, "x"]

    bounded = Store(env, capacity=1)
    assert bounded.put("a").triggered
    assert bounded._putters is None
    second, third, fourth = bounded.put("b"), bounded.put("c"), bounded.put("d")
    assert not second.triggered and len(bounded._putters) == 3
    bounded.cancel(third)
    got = [bounded.get() for _ in range(3)]
    env.run()
    # Blocked puts are admitted in arrival order, the cancelled one never.
    assert [g.value for g in got] == ["a", "b", "d"]
    assert second.triggered and fourth.triggered and not third.triggered
    assert not bounded._putters
    # Room again and nobody waiting: the next put is stored at once.
    assert bounded.put("e").triggered and list(bounded.items) == ["e"]


def test_matching_getters_keeps_the_getter_queue(env):
    store = Store(env)
    getters = store._getters
    first, second, third = store.get(), store.get(), store.get()
    store.put_nowait("a")
    store.put_nowait("b")
    assert store._getters is getters and list(getters) == [third]
    env.run()
    assert (first.value, second.value) == ("a", "b") and not third.triggered


# -- FilterStore -----------------------------------------------------------


def test_filter_store_matches_predicate(env):
    store = FilterStore(env)
    store.put_nowait(("size", 1))
    store.put_nowait(("color", "red"))

    def proc():
        item = yield store.get(lambda it: it[0] == "color")
        return item

    assert env.run(env.process(proc())) == ("color", "red")
    assert list(store.items) == [("size", 1)]


def test_filter_store_waits_for_match(env):
    store = FilterStore(env)
    log = []

    def consumer():
        item = yield store.get(lambda it: it > 10)
        log.append((env.now, item))

    def producer():
        yield store.put(3)
        yield env.timeout(2.0)
        yield store.put(42)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [(2.0, 42)]
    assert list(store.items) == [3]


def test_filter_store_default_predicate_takes_anything(env):
    store = FilterStore(env)
    store.put_nowait("x")

    def proc():
        return (yield store.get())

    assert env.run(env.process(proc())) == "x"


def test_filter_store_peek_matching(env):
    store = FilterStore(env)
    for i in range(5):
        store.put_nowait(i)
    assert store.peek_matching(lambda x: x % 2 == 0) == [0, 2, 4]
    assert len(store) == 5  # peek does not consume


def test_filter_store_skipped_getter_not_starved(env):
    """A blocked selective getter must not block later compatible getters."""
    store = FilterStore(env)
    got = []

    def picky():
        item = yield store.get(lambda it: it == "never")
        got.append(("picky", item))

    def easy():
        item = yield store.get()
        got.append(("easy", item))

    env.process(picky())
    env.process(easy())

    def producer():
        yield env.timeout(1.0)
        yield store.put("plain")

    env.process(producer())
    env.run(until=10.0)
    assert got == [("easy", "plain")]


# -- Resource -----------------------------------------------------------


def test_resource_grants_up_to_capacity(env):
    res = Resource(env, capacity=2)
    holds = []

    def holder(name):
        req = res.request()
        yield req
        holds.append((name, env.now))
        yield env.timeout(5.0)
        res.release(req)

    for name in ("a", "b", "c"):
        env.process(holder(name))
    env.run()
    assert holds == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_resource_count(env):
    res = Resource(env, capacity=3)
    reqs = [res.request() for _ in range(2)]
    env.run(until=0.1)
    assert res.count == 2
    res.release(reqs[0])
    assert res.count == 1


def test_release_unqueued_request_is_noop(env):
    res = Resource(env, capacity=1)
    r1 = res.request()
    env.run(until=0.1)
    res.release(r1)
    res.release(r1)  # double release must not corrupt state
    assert res.count == 0


def test_release_pending_request_withdraws_it(env):
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    env.run(until=0.1)
    assert res.count == 1
    res.release(r2)  # r2 never granted; withdrawing leaves r1 held
    assert res.count == 1
    assert len(res.queue) == 0


def test_resource_capacity_validation(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_filter_store_unserved_getters_keep_their_order(env):
    store = FilterStore(env)
    getters = store._getters
    want_a1 = store.get(lambda it: it == "a")
    want_b = store.get(lambda it: it == "b")
    want_a2 = store.get(lambda it: it == "a")
    want_c = store.get(lambda it: it == "c")
    store.put_nowait("b")
    assert store._getters is getters
    assert list(getters) == [want_a1, want_a2, want_c]
    store.put_nowait("a")
    store.put_nowait("a")
    assert list(getters) == [want_c]
    env.run()
    assert (want_a1.value, want_a2.value, want_b.value) == ("a", "a", "b")
    assert not want_c.triggered and not store.items
