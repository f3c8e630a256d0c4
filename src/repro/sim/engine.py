"""Discrete-event simulation kernel.

The kernel is deliberately small and dependency-free: an event queue
ordered by ``(time, sequence)`` plus a generator-based *process* layer
in :mod:`repro.sim.process`.  All hardware components in the library
are built on top of these two primitives.

Times are floats in nanoseconds (see :mod:`repro.units`).  Ties are
broken by insertion order, which makes runs fully deterministic for a
given seed.

The hot loop is tuned for CPython (DESIGN.md §4c).  Heap entries are
``(time, seq, target, value)`` tuples, so sift comparisons run at C
speed (``seq`` is unique, so the tuple order never consults the
target).  ``target`` is either an :class:`Event` -- a cancellable
callback from :meth:`Engine.schedule` -- or anything with a
``_resume(value)`` method (a process, a signal observer), which a
wakeup pushes bare, with no ``Event`` allocated.  The heap is
compacted in place when cancelled entries outnumber live ones.  None
of this changes semantics -- pop order is the same ``(time, seq)``
total order the kernel has always used.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

Callback = Callable[..., None]

# Compaction triggers when the queue holds more cancelled than live
# entries; tiny queues are never worth rebuilding.
_MIN_COMPACT_QUEUE = 64

# Process-wide executed-event tally across all engines ever run.
# repro.perf reads deltas of this to derive events/sec for profiled
# runs that build many engines (one per simulation).
_total_events = 0


def total_events_executed() -> int:
    """Events executed by every engine in this process so far."""
    return _total_events


class Event:
    """A scheduled callback.

    Events are created through :meth:`Engine.schedule` /
    :meth:`Engine.schedule_at` and can be cancelled with
    :meth:`Engine.cancel`.  A cancelled event stays in the heap but is
    skipped when popped (unless compaction removes it first).  An event
    that has already executed is marked ``fired``; cancelling it
    afterwards is a protocol error.

    Every :meth:`~Engine.schedule` call returns a fresh object, so a
    handle keeps naming its own event for as long as it is held:
    cancelling a handle whose event already fired or was cancelled is
    always detected, and can never hit an unrelated later event.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time: float, seq: int, callback: Callback, args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else (" fired" if self.fired else "")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.1f} #{self.seq} {name}{state}>"


class Engine:
    """The event loop.

    ``now`` is a plain attribute rather than a read-only property,
    because the runner and the components read it on every dispatch
    and miss.  Only this class and the vector backend
    (:mod:`repro.sim.vector`, which advances time for the jobs it runs
    in bulk) may assign it; everything else moves time through
    :meth:`run`, :meth:`step` or the checked :meth:`advance_batch`.
    ``tests/test_sim_engine.py`` fails on any other assignment under
    ``src/``.

    >>> engine = Engine()
    >>> fired = []
    >>> _ = engine.schedule(10.0, fired.append, "a")
    >>> _ = engine.schedule(5.0, fired.append, "b")
    >>> engine.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        #: Current simulation time in nanoseconds (see the class
        #: docstring for who may assign it).
        self.now = 0.0
        self._queue: List[Tuple[float, int, Any, Any]] = []
        self._seq = 0
        self._running = False
        self._cancelled_in_queue = 0
        # Kernel health/throughput telemetry (repro.perf reads these).
        self.events_executed = 0
        self.compactions = 0

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callback, *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callback, *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, event, None))
        return event

    def wake(self, target: Any, delay: float, value: Any = None) -> None:
        """Call ``target._resume(value)`` after ``delay`` nanoseconds.

        The process layer's wakeup: one bare heap entry, no
        :class:`Event`, and so nothing to cancel.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, target, value))

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.

        Cancelling twice is an error, and so is cancelling an event
        that already executed.
        """
        if event.fired:
            raise SimulationError(
                f"cannot cancel an event that already fired: {event!r}"
            )
        if event.cancelled:
            raise SimulationError(f"event already cancelled: {event!r}")
        event.cancelled = True
        event.callback = None
        event.args = ()
        self._cancelled_in_queue += 1
        if (self._cancelled_in_queue * 2 > len(self._queue)
                and len(self._queue) >= _MIN_COMPACT_QUEUE):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap in place.

        Long sweeps that schedule-then-cancel (timeout patterns, the
        Fig. 10 load ladder) would otherwise grow the heap without
        bound and pay ``log``-of-garbage on every push/pop.  Rebuilding
        preserves pop order exactly: ``(time, seq)`` is a total order,
        so the filtered heap yields the same sequence of live entries.

        The list object is mutated in place (slice assignment) because
        ``run`` holds a local reference to it while executing.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if type(entry[2]) is not Event or not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled_in_queue = 0
        self.compactions += 1

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending entry.  Returns False if none left."""
        while self._queue:
            time, _seq, target, value = heapq.heappop(self._queue)
            if type(target) is Event and target.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self.now = time
            self.events_executed += 1
            global _total_events
            _total_events += 1
            if type(target) is Event:
                target.fired = True
                target.callback(*target.args)
            else:
                target._resume(value)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until simulation time ``until``.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if the last event fired earlier.
        """
        if self._running:
            raise SimulationError("engine.run() re-entered")
        self._running = True
        # Local bindings: attribute lookups cost on every iteration of
        # the hottest loop in the simulator.  ``queue`` stays valid
        # across callbacks because pushes and compaction mutate the
        # same list object in place.
        queue = self._queue
        heappop = heapq.heappop
        event_type = Event
        executed = 0
        # One float compare per iteration instead of a None test plus
        # a compare; event times are always finite.
        horizon = float("inf") if until is None else until
        try:
            while queue:
                entry = queue[0]
                if entry[0] > horizon:
                    break
                heappop(queue)
                target = entry[2]
                if type(target) is event_type:
                    if target.cancelled:
                        self._cancelled_in_queue -= 1
                        continue
                    target.fired = True
                    self.now = entry[0]
                    executed += 1
                    target.callback(*target.args)
                else:
                    self.now = entry[0]
                    executed += 1
                    target._resume(entry[3])
            if until is not None and self.now < until:
                self.now = until
        finally:
            self.events_executed += executed
            global _total_events
            _total_events += executed
            self._running = False

    def advance_batch(self, now: float, events: int) -> None:
        """Jump the clock to ``now`` and credit ``events`` executed
        events without touching the heap.

        The vector backend (:mod:`repro.sim.vector`) retires batches of
        predictable quantum resumes outside the event loop; this is how
        it keeps the engine's clock and kernel telemetry — including
        the process-wide tally behind
        :func:`total_events_executed` — bit-identical to the scalar
        run it replaces.  Time must not move backwards and the engine
        must not be mid-``run``.
        """
        if now < self.now:
            raise SimulationError(
                f"advance_batch to {now} before current time {self.now}"
            )
        if self._running:
            raise SimulationError("advance_batch during engine.run()")
        if events < 0:
            raise SimulationError(f"negative event batch: {events}")
        self.now = now
        self.events_executed += events
        global _total_events
        _total_events += events

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) entries in the queue."""
        return len(self._queue) - self._cancelled_in_queue

    @property
    def queue_length(self) -> int:
        """Heap entries, including not-yet-compacted cancelled ones."""
        return len(self._queue)

    def __repr__(self) -> str:
        return f"<Engine t={self.now:.1f} pending={self.pending_events}>"
