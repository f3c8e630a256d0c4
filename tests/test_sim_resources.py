"""Unit tests for Server and Store resources."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Ready, Server, Store, spawn


def _use(server, engine, duration, log, tag):
    grant = server.acquire()
    if grant is not None:
        yield grant
    log.append((tag, "start", engine.now))
    yield duration
    server.release()
    log.append((tag, "end", engine.now))


def test_server_serializes_beyond_capacity():
    engine = Engine()
    server = Server(engine, capacity=1)
    log = []
    spawn(engine, _use(server, engine, 10.0, log, "a"))
    spawn(engine, _use(server, engine, 10.0, log, "b"))
    engine.run()
    # b must wait for a to release.
    assert ("a", "end", 10.0) in log
    assert ("b", "start", 10.0) in log
    assert ("b", "end", 20.0) in log


def test_server_parallel_up_to_capacity():
    engine = Engine()
    server = Server(engine, capacity=2)
    log = []
    for tag in ("a", "b"):
        spawn(engine, _use(server, engine, 10.0, log, tag))
    engine.run()
    assert ("a", "end", 10.0) in log
    assert ("b", "end", 10.0) in log


def test_server_fifo_grant_order():
    engine = Engine()
    server = Server(engine, capacity=1)
    log = []
    for tag in ("a", "b", "c"):
        spawn(engine, _use(server, engine, 5.0, log, tag))
    engine.run()
    starts = [entry for entry in log if entry[1] == "start"]
    assert [s[0] for s in starts] == ["a", "b", "c"]


def test_release_idle_server_raises():
    engine = Engine()
    server = Server(engine, capacity=1)
    with pytest.raises(SimulationError):
        server.release()


def test_invalid_capacities_raise():
    engine = Engine()
    with pytest.raises(SimulationError):
        Server(engine, capacity=0)
    with pytest.raises(SimulationError):
        Store(engine, capacity=0)


def test_store_put_get_fifo():
    engine = Engine()
    store = Store(engine)
    assert store.try_put("x")
    assert store.try_put("y")
    assert store.try_get() == (True, "x")
    assert store.try_get() == (True, "y")
    assert store.try_get() == (False, None)


def test_store_capacity_blocks_put():
    engine = Engine()
    store = Store(engine, capacity=1)
    assert store.try_put("a")
    assert not store.try_put("b")
    assert store.is_full


def test_store_blocking_get_wakes_on_put():
    engine = Engine()
    store = Store(engine)
    received = []

    def consumer():
        slot = store.get()
        if isinstance(slot, Ready):
            item = slot.item
        else:
            item = yield slot
        received.append((item, engine.now))

    def producer():
        yield 15.0
        store.try_put("hello")

    spawn(engine, consumer())
    spawn(engine, producer())
    engine.run()
    assert received == [("hello", 15.0)]


def test_store_blocking_put_wakes_on_get():
    engine = Engine()
    store = Store(engine, capacity=1)
    store.try_put("first")
    done = []

    def producer():
        signal = store.put("second")
        assert signal is not None
        yield signal
        done.append(engine.now)

    def consumer():
        yield 25.0
        ok, item = store.try_get()
        assert ok and item == "first"

    spawn(engine, producer())
    spawn(engine, consumer())
    engine.run()
    assert done == [25.0]
    assert store.try_get() == (True, "second")


def test_store_get_ready_when_item_present():
    engine = Engine()
    store = Store(engine)
    store.try_put(7)
    slot = store.get()
    assert isinstance(slot, Ready)
    assert slot.item == 7
