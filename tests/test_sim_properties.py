"""Property-based tests for the simulation kernel and resources."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Server, Signal, Store, spawn

# Small integral times so that ties, which only creation order breaks,
# are common.
_times = st.integers(0, 12).map(float)


class _Ledger:
    """Reference model of the kernel's queue: every heap entry a test
    process or callback causes is logged, with its due time, at the
    moment the kernel pushes it, and every execution is logged by the
    entry's creation index."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.created = []      # due time, indexed by creation order
        self.cancelled = set()
        self.executed = []     # creation indexes, in execution order

    def create(self, delay: float) -> int:
        self.created.append(self.engine.now + delay)
        return len(self.created) - 1

    def expected(self, until: float):
        live = [(due, index) for index, due in enumerate(self.created)
                if index not in self.cancelled and due <= until]
        return [index for _due, index in sorted(live)]

    def live_entries(self) -> int:
        return len(self.created) - len(self.cancelled) - len(self.executed)


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        engine = Engine()
        fired_times = []
        for delay in delays:
            engine.schedule(delay, lambda: fired_times.append(engine.now))
        engine.run()
        assert fired_times == sorted(fired_times)
        assert len(fired_times) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=60),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_cancellation_removes_exactly_the_cancelled(self, delays, data):
        engine = Engine()
        fired = []
        events = [
            engine.schedule(delay, fired.append, index)
            for index, delay in enumerate(delays)
        ]
        to_cancel = data.draw(st.sets(
            st.integers(0, len(events) - 1), max_size=len(events)
        ))
        for index in to_cancel:
            engine.cancel(events[index])
        engine.run()
        assert sorted(fired) == sorted(
            set(range(len(events))) - to_cancel
        )

    @given(st.lists(st.floats(min_value=0.1, max_value=1e4,
                              allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_process_sleep_sums(self, sleeps):
        engine = Engine()
        done = []

        def sleeper():
            for gap in sleeps:
                yield gap
            done.append(engine.now)

        spawn(engine, sleeper())
        engine.run()
        assert done[0] == sum(sleeps)

    @given(callbacks=st.lists(st.tuples(_times, st.booleans()), max_size=10),
           sleepers=st.lists(st.lists(_times, max_size=4), max_size=5),
           waiters=st.lists(st.tuples(st.integers(0, 1), _times),
                            max_size=6),
           fires=st.lists(st.one_of(st.none(), _times), min_size=2,
                          max_size=2),
           until=_times)
    @settings(max_examples=150, deadline=None)
    def test_mixed_entries_pop_in_time_then_creation_order(
            self, callbacks, sleepers, waiters, fires, until):
        """Process sleeps, signal wakeups and cancellable callbacks
        share one (time, creation order) total order."""
        engine = Engine()
        ledger = _Ledger(engine)
        signals = [Signal(engine, f"s{index}") for index in range(2)]
        # Creation indexes of the wakeups each fire pushes, by waiter.
        parked = [[], []]

        def sleeper(start, gaps):
            ledger.executed.append(start)
            for gap in gaps:
                index = ledger.create(gap)
                yield gap
                ledger.executed.append(index)

        def waiter(start, which, gap):
            ledger.executed.append(start)
            index = ledger.create(gap)
            yield gap
            ledger.executed.append(index)
            signal = signals[which]
            slot = []
            if signal.fired:
                slot.append(ledger.create(0.0))
            else:
                parked[which].append(slot)
            yield signal
            ledger.executed.append(slot[0])

        def fire(own, which):
            ledger.executed.append(own)
            for slot in parked[which]:
                slot.append(ledger.create(0.0))
            parked[which] = []
            signals[which].fire(which)

        handles = []
        for delay, cancel in callbacks:
            index = ledger.create(delay)
            handles.append((engine.schedule(delay, ledger.executed.append,
                                            index), index, cancel))
        for gaps in sleepers:
            spawn(engine, sleeper(ledger.create(0.0), gaps))
        for which, gap in waiters:
            spawn(engine, waiter(ledger.create(0.0), which, gap))
        for which, when in enumerate(fires):
            if when is not None:
                index = ledger.create(when)
                engine.schedule(when, fire, index, which)
        for handle, index, cancel in handles:
            if cancel:
                engine.cancel(handle)
                ledger.cancelled.add(index)

        engine.run(until=until)
        assert ledger.executed == ledger.expected(until)
        assert engine.events_executed == len(ledger.executed)
        assert engine.pending_events == ledger.live_entries()
        engine.run()
        assert ledger.executed == ledger.expected(float("inf"))
        assert engine.events_executed == len(ledger.executed)
        assert engine.pending_events == 0


class TestServerProperties:
    @given(st.integers(1, 4), st.lists(
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=60, deadline=None)
    def test_server_conserves_work(self, capacity, service_times):
        """Total busy time equals the sum of services; finish time is at
        least the critical path and at most the serial sum."""
        engine = Engine()
        server = Server(engine, capacity)
        finish = []

        def client(duration):
            grant = server.acquire()
            if grant is not None:
                yield grant
            yield duration
            server.release()
            finish.append(engine.now)

        for duration in service_times:
            spawn(engine, client(duration))
        engine.run()
        makespan = max(finish)
        serial = sum(service_times)
        assert makespan <= serial + 1e-6
        assert makespan >= serial / capacity - 1e-6
        assert server.busy == 0

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40),
           st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_store_is_fifo_and_lossless(self, items, capacity):
        engine = Engine()
        store = Store(engine, capacity=capacity)
        received = []

        def producer():
            for item in items:
                signal = store.put(item)
                if signal is not None:
                    yield signal
                yield 1.0

        def consumer():
            from repro.sim import Ready
            for _ in items:
                slot = store.get()
                if isinstance(slot, Ready):
                    received.append(slot.item)
                else:
                    received.append((yield slot))
                yield 0.5

        spawn(engine, producer())
        spawn(engine, consumer())
        engine.run()
        assert received == items
