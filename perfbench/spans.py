"""Per-layer host-time attribution from wrappers around layer entry points.

The program carries no instrumentation of its own; :func:`install`
replaces public entry points of each ``repro`` layer with wrappers that
open a span on entry and close it on exit.  Generators (simulation
processes, step generators, the pager's fault path) get a span per
resume, so a process the engine schedules is charged to the layer that
defined it (BC miss handling to ``dramcache``, flash programs and GC to
``flash``), not to ``sim``.

Spans are aggregated as they close, per ``(span, parent span)`` edge
(count and inclusive seconds), and a running accumulator charges every
interval to the span on top of the stack, so memory stays bounded
however long the run is.  A layer's self time is then available two
independent ways -- the accumulator, and inclusive edge time minus the
edge time of its children -- which :meth:`LayerTracer.consistency`
compares.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers, named after the ``repro`` modules they cover.
LAYERS = ("workloads", "sim", "core", "ult", "dramcache", "flash",
          "writes", "osmodel", "snapshot")

#: Which layer a ``repro`` subpackage or module belongs to.
_MODULE_LAYERS = {
    "workloads": "workloads", "sim": "sim", "core": "core", "cpu": "core",
    "ult": "ult", "dramcache": "dramcache", "flash": "flash",
    "writes": "writes", "osmodel": "osmodel", "snapshot": "snapshot",
}

#: Allowed disagreement between the two self-time derivations, and
#: between (layer self times + untraced residual) and the traced wall
#: time, as a share of the traced wall time.
CONSISTENCY_TOLERANCE = 0.005

_ROOT = -1
_clock = time.perf_counter


class LayerTracer:
    """Span stack with per-layer self time and per-edge aggregates."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.span_layer: List[int] = []
        self.calls: List[int] = []
        self.items: List[int] = []
        self.self_s = [0.0] * len(LAYERS)
        self.untraced_s = 0.0
        self.edges: Dict[Tuple[int, int], List[float]] = {}
        self._stack: List[Tuple[int, float]] = []
        self._ids: Dict[str, int] = {}
        self._last = 0.0
        self.start = self.end = 0.0

    def span(self, name: str, layer: str) -> int:
        """Register (or look up) span ``name`` of ``layer``."""
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.span_layer.append(LAYERS.index(layer))
            self.calls.append(0)
            self.items.append(0)
        return sid

    def begin(self) -> float:
        self.start = self._last = _clock()
        return self.start

    def finish(self) -> float:
        if self._stack:
            open_spans = [self.names[sid] for sid, _ in self._stack]
            raise RuntimeError(f"spans still open at finish: {open_spans}")
        self.end = _clock()
        self.untraced_s += self.end - self._last
        return self.end

    def enter(self, sid: int) -> None:
        now = _clock()
        stack = self._stack
        if stack:
            self.self_s[self.span_layer[stack[-1][0]]] += now - self._last
        else:
            self.untraced_s += now - self._last
        stack.append((sid, now))
        self._last = now

    def leave(self) -> None:
        now = _clock()
        stack = self._stack
        sid, started = stack.pop()
        self.self_s[self.span_layer[sid]] += now - self._last
        self._last = now
        key = (sid, stack[-1][0] if stack else _ROOT)
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = [1, now - started]
        else:
            edge[0] += 1
            edge[1] += now - started

    # -- results -------------------------------------------------------------

    def edge_self_s(self) -> List[float]:
        """Per-layer self time as inclusive span time minus child spans."""
        totals = [0.0] * len(LAYERS)
        for (sid, parent), (_count, seconds) in self.edges.items():
            totals[self.span_layer[sid]] += seconds
            if parent != _ROOT:
                totals[self.span_layer[parent]] -= seconds
        return totals

    def inclusive_s(self, name: str) -> float:
        """Time inside span ``name``, counting nested re-entry once."""
        sid = self._ids.get(name)
        if sid is None:
            return 0.0
        return sum(seconds for (span, parent), (_, seconds)
                   in self.edges.items() if span == sid and parent != sid)

    def count(self, name: str, items: bool = False) -> int:
        sid = self._ids.get(name)
        if sid is None:
            return 0
        return self.items[sid] if items else self.calls[sid]

    def layer_entries(self) -> Dict[str, int]:
        """Spans opened per layer (calls and generator resumes)."""
        totals = dict.fromkeys(LAYERS, 0)
        for (sid, _), (count, _) in self.edges.items():
            totals[LAYERS[self.span_layer[sid]]] += int(count)
        return totals

    def consistency(self) -> Dict[str, object]:
        """Check that the span accounting adds up.

        Layer self times from the edges plus the time no span covered
        must equal the traced wall time, and must agree layer by layer
        with the running accumulator; no self time may be negative.
        """
        wall = self.end - self.start
        edge_self = self.edge_self_s()
        total = sum(edge_self) + self.untraced_s
        worst_layer = max(abs(a - b) for a, b in zip(edge_self, self.self_s))
        limit = CONSISTENCY_TOLERANCE * wall
        ok = (abs(total - wall) <= limit and worst_layer <= limit
              and min(edge_self) >= -limit and self.untraced_s >= 0.0)
        return {"ok": ok, "wall_s": wall, "residual_s": self.untraced_s,
                "layers_plus_residual_s": total,
                "worst_layer_disagreement_s": worst_layer,
                "tolerance": CONSISTENCY_TOLERANCE}

    def spans(self) -> List[Dict[str, object]]:
        """The aggregated spans, one record per (span, parent) edge."""
        return [{"name": self.names[sid],
                 "layer": LAYERS[self.span_layer[sid]],
                 "parent": None if parent == _ROOT else self.names[parent],
                 "count": int(count), "seconds": seconds}
                for (sid, parent), (count, seconds)
                in sorted(self.edges.items())]


# ----------------------------------------------------------------- wrappers --


def _module_layer(module_name: str) -> str:
    """The layer of a ``repro`` module; engine plumbing is ``sim``."""
    parts = module_name.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "sim"
    return _MODULE_LAYERS.get(parts[1], "sim")


def _traced_generator(gen, tracer: LayerTracer, sid: int,
                      count_items: bool = False):
    """Forward ``gen`` (send/throw/close) with a span around each resume."""
    enter, leave, items = tracer.enter, tracer.leave, tracer.items
    send, throw = gen.send, gen.throw
    value = thrown = None
    while True:
        enter(sid)
        try:
            item = send(value) if thrown is None else throw(thrown)
        except StopIteration as stop:
            return stop.value
        finally:
            leave()
        if count_items:
            items[sid] += 1
        thrown = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into ``gen`` above
            thrown = exc


def _wrap_call(tracer: LayerTracer, owner, attr: str, name: str,
               layer: str,
               items: Optional[Callable[[object], int]] = None) -> None:
    """Span around each call of ``owner.attr``."""
    sid = tracer.span(name, layer)
    original = getattr(owner, attr)
    calls, counts = tracer.calls, tracer.items

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls[sid] += 1
        tracer.enter(sid)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.leave()
        if items is not None:
            counts[sid] += items(result)
        return result

    setattr(owner, attr, wrapper)


def _wrap_generator(tracer: LayerTracer, owner, attr: str, name: str,
                    layer: str) -> None:
    """Span around each resume of the generator ``owner.attr`` returns."""
    sid = tracer.span(name, layer)
    original = getattr(owner, attr)
    calls = tracer.calls

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls[sid] += 1
        return _traced_generator(original(*args, **kwargs), tracer, sid)

    setattr(owner, attr, wrapper)


def _wrap_function(tracer: LayerTracer, function, name: str,
                   layer: str) -> None:
    """Span around a module-level function, in every ``repro`` module
    that holds a reference to it."""
    for module_name, module in list(sys.modules.items()):
        if (module_name.split(".")[0] == "repro"
                and module.__dict__.get(function.__name__) is function):
            _wrap_call(tracer, module, function.__name__, name, layer)


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's entry points for the rest of the process."""
    from repro import snapshot
    from repro.core.machine import Machine
    from repro.core.runner import Runner
    from repro.dramcache.cache import DramCache
    from repro.flash.device import FlashDevice
    from repro.osmodel.paging import DemandPager
    from repro.sim import process, vector
    from repro.sim.engine import Engine
    from repro.ult.library import ThreadLibrary
    from repro.workloads import arrival
    from repro.workloads.arrayswap import ArraySwapWorkload
    from repro.workloads.base import Workload
    from repro.workloads.registry import make_workload
    from repro.writes import admission

    # workloads: dataset builds, job creation, every generated step
    # (scalar pulls, warm-up traces and lazy vector pulls alike), the
    # numpy step planners and arrival gaps.
    _wrap_function(tracer, make_workload, "workloads.build", "workloads")
    make_job_sid = tracer.span("workloads.make_job", "workloads")
    step_sid = tracer.span("workloads.step", "workloads")
    make_job = Workload.make_job

    @functools.wraps(make_job)
    def traced_make_job(self):
        tracer.calls[make_job_sid] += 1
        tracer.enter(make_job_sid)
        try:
            job = make_job(self)
        finally:
            tracer.leave()
        job.steps = _traced_generator(job.steps, tracer, step_sid,
                                      count_items=True)
        return job

    Workload.make_job = traced_make_job
    _wrap_call(tracer, Workload, "plan_steps", "workloads.plan", "workloads")
    _wrap_call(tracer, ArraySwapWorkload, "plan_steps",
               "workloads.plan_arrayswap", "workloads",
               items=lambda columns: len(columns[0]))
    _wrap_call(tracer, ArraySwapWorkload, "plan_step_block",
               "workloads.plan_block", "workloads", items=len)
    _wrap_call(tracer, ArraySwapWorkload, "plan_compute_block",
               "workloads.plan_compute", "workloads",
               items=lambda planned: len(planned[0]))
    for cls in vars(arrival).values():
        if isinstance(cls, type) and cls.__module__ == arrival.__name__:
            for attr in ("next_gap_ns", "gap_block"):
                if attr in cls.__dict__:
                    _wrap_call(tracer, cls, attr, "workloads.arrival",
                               "workloads")

    # sim: the event loop and the vector backend's batched loops.
    _wrap_call(tracer, Engine, "run", "sim.engine_run", "sim")
    _wrap_function(tracer, vector.run_merged, "sim.vector_merged", "sim")
    _wrap_function(tracer, vector.run_fused, "sim.vector_fused", "sim")

    # Engine-scheduled work is charged to the layer that wrote it: each
    # process generator resume, and each signal-observer callback.
    process_init = process.Process.__init__

    @functools.wraps(process_init)
    def traced_process_init(self, engine, generator, name=""):
        layer = _module_layer(generator.gi_frame.f_globals["__name__"])
        sid = tracer.span(f"{layer}.process", layer)
        process_init(self, engine,
                     _traced_generator(generator, tracer, sid), name)

    process.Process.__init__ = traced_process_init
    observer_resume = process._SignalObserver._resume

    @functools.wraps(observer_resume)
    def traced_observer_resume(self, value):
        layer = _module_layer(getattr(self.callback, "__module__", ""))
        tracer.enter(tracer.span(f"{layer}.callback", layer))
        try:
            observer_resume(self, value)
        finally:
            tracer.leave()

    process._SignalObserver._resume = traced_observer_resume

    # core: the runner and machine construction.
    _wrap_call(tracer, Runner, "run", "core.run", "core")
    _wrap_call(tracer, Machine, "__init__", "core.machine_build", "core")

    # ult: the thread library's scheduling entry points.
    for attr in ("pick_next", "admit", "on_miss", "on_data_ready",
                 "on_finish"):
        _wrap_call(tracer, ThreadLibrary, attr, f"ult.{attr}", "ult")

    # dramcache: frontside accesses and the warm-up of the DRAM tier.
    _wrap_call(tracer, DramCache, "access", "dramcache.access", "dramcache")
    _wrap_call(tracer, Machine, "warm_caches", "dramcache.warm", "dramcache")

    # flash: host-side read/program submission (device work runs in
    # the flash processes above).
    _wrap_call(tracer, FlashDevice, "read", "flash.read", "flash")
    _wrap_call(tracer, FlashDevice, "write", "flash.write", "flash")

    # writes: admission-policy decisions.
    for cls in vars(admission).values():
        if isinstance(cls, type) and issubclass(cls,
                                                admission.AdmissionPolicy):
            for attr in ("observe_read", "admit_writeback"):
                if attr in cls.__dict__:
                    _wrap_call(tracer, cls, attr, "writes.admission",
                               "writes")

    # osmodel: resident-set probes and the page-fault path.
    _wrap_call(tracer, DemandPager, "access", "osmodel.access", "osmodel")
    _wrap_generator(tracer, DemandPager, "fault", "osmodel.fault", "osmodel")

    # snapshot: dataset memoization and warm-state capture/restore.
    _wrap_function(tracer, snapshot.build_workload, "snapshot.build_workload",
                   "snapshot")
    _wrap_function(tracer, snapshot.capture_warm, "snapshot.capture",
                   "snapshot")
    _wrap_function(tracer, snapshot.restore_warm, "snapshot.restore",
                   "snapshot")
