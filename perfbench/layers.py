"""Per-layer metrics of one traced repetition, and the model outputs.

Counts come from ``SimulationResult.counters`` and result fields, or
from call counts of the wrapped entry points; both repeat exactly at a
seed.  ``*.self_s`` is host time in the layer's own code, ``*_s``
without ``self`` is host time inside one span including its children.
The ``model.*`` figures are simulated outputs: a speed-only change
must leave them identical.  DESIGN.md gives, for each layer, the
end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.checks import PAPER_FIG9, fig9_norms
from perfbench.spans import LAYERS, LayerTracer
from perfbench.workloads import cell_label

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("workloads.jobs", "count", "lower"),
    ("workloads.steps", "count", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("workloads.ns_per_step", "ns", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.compactions", "count", "lower"),
    ("sim.vector_cells", "count", "higher"),
    ("sim.scalar_cells", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.machine_build_s", "s", "lower"),
    ("core.busy_fraction", "fraction", "higher"),
    ("ult.picks", "count", "lower"),
    ("ult.self_s", "s", "lower"),
    ("ult.switch_ms", "ms", "lower"),
    ("ult.blocking_dispatches", "count", "lower"),
    ("dramcache.accesses", "count", "lower"),
    ("dramcache.misses", "count", "lower"),
    ("dramcache.miss_ratio", "fraction", "lower"),
    ("dramcache.coalesced_misses", "count", "higher"),
    ("dramcache.replay_races", "count", "lower"),
    ("dramcache.self_s", "s", "lower"),
    ("dramcache.warm_s", "s", "lower"),
    ("flash.reads", "count", "lower"),
    ("flash.programs", "count", "lower"),
    ("flash.gc_erases", "count", "lower"),
    ("flash.gc_stalls", "count", "lower"),
    ("flash.blocked_by_gc", "count", "lower"),
    ("flash.wa_factor", "ratio", "lower"),
    ("flash.self_s", "s", "lower"),
    ("writes.admission_rejects", "count", "lower"),
    ("writes.flash_writes_per_app_write", "ratio", "lower"),
    ("writes.self_s", "s", "lower"),
    ("osmodel.faults", "count", "lower"),
    ("osmodel.self_s", "s", "lower"),
    ("snapshot.captures", "count", "lower"),
    ("snapshot.restores", "count", "higher"),
    ("snapshot.self_s", "s", "lower"),
    ("model.throughput_jobs_per_s", "1/s", "higher"),
    ("model.service_p99_us", "us", "lower"),
    ("model.response_p99_us", "us", "lower"),
    ("model.backlog_fraction", "fraction", "lower"),
] + [
    (f"model.fig9_norm.{preset}", "ratio", "higher") for preset in PAPER_FIG9
] + [
    (f"model.fig9_err.{preset}", "ratio", "lower") for preset in PAPER_FIG9
] + [
    ("model.digest_match", "count", "higher"),
    ("trace.overhead", "ratio", "lower"),
]

#: Counter prefixes summed over cells into count metrics.
_COUNTERS = {
    "sim.events": "engine.events_executed",
    "sim.compactions": "engine.compactions",
    "ult.blocking_dispatches": "blocking_dispatches",
    "dramcache.accesses": "dramcache.accesses",
    "dramcache.misses": "dramcache.misses",
    "dramcache.coalesced_misses": "dramcache.coalesced_misses",
    "dramcache.replay_races": "replay_miss_races",
    "flash.reads": "flash.reads",
    "flash.programs": "flash.writes",
    "flash.gc_erases": "writes.gc_erases",
    "flash.gc_stalls": "flash.write_gc_stalls",
    "flash.blocked_by_gc": "flash.requests_blocked_by_gc",
    "writes.admission_rejects": "writes.admission_rejects",
}

_STEP_SPANS = ("workloads.step", "workloads.plan_arrayswap",
               "workloads.plan_block", "workloads.plan_compute")


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def model_metrics(specs, results, digests: Sequence[Optional[str]],
                  reference: Optional[Dict[str, str]]) -> Dict[str, float]:
    """Simulated outputs of the workload (``model.*``)."""
    done = [result for result in results if result is not None]
    open_loop = [result.response_p99_ns for spec, result
                 in zip(specs, results)
                 if result is not None and spec.arrivals is not None]
    metrics = {
        "model.throughput_jobs_per_s": sum(r.throughput_jobs_per_s
                                           for r in done),
        "model.service_p99_us": max((r.service_p99_ns for r in done),
                                    default=0.0) / 1e3,
        "model.response_p99_us": max(open_loop, default=0.0) / 1e3,
        "model.backlog_fraction": max((r.backlog_fraction for r in done),
                                      default=0.0),
    }
    norms = fig9_norms(specs, results)
    for preset, paper in PAPER_FIG9.items():
        norm = norms.get(preset)
        metrics[f"model.fig9_norm.{preset}"] = norm or 0.0
        metrics[f"model.fig9_err.{preset}"] = (
            abs(norm - paper) / paper if norm else 0.0)
    # -1: no digest is stored for this seed, so nothing to compare.
    metrics["model.digest_match"] = -1 if reference is None else sum(
        1 for spec, value in zip(specs, digests)
        if value is not None and reference.get(cell_label(spec)) == value)
    return metrics


def layer_metrics(specs, results, paths: Sequence[str],
                  tracer: LayerTracer) -> Dict[str, float]:
    """Per-layer counts and host times of one traced repetition."""
    done = [result for result in results if result is not None]
    metrics: Dict[str, float] = {
        name: float(sum(r.counters.get(key, 0.0) for r in done))
        for name, key in _COUNTERS.items()
    }
    self_s = dict(zip(LAYERS, tracer.edge_self_s()))
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
    steps = sum(tracer.count(name, items=True) for name in _STEP_SPANS)
    build_s = tracer.inclusive_s("workloads.build")
    write_cells = [r.counters for r in done
                   if "writes.wa_factor" in r.counters]
    metrics.update({
        "workloads.jobs": tracer.count("workloads.make_job"),
        "workloads.steps": steps,
        # Step generation only: dataset builds are left out.
        "workloads.ns_per_step": ((self_s["workloads"] - build_s)
                                  / steps * 1e9 if steps else 0.0),
        "workloads.build_s": build_s,
        "sim.ns_per_event": (self_s["sim"] / metrics["sim.events"] * 1e9
                             if metrics["sim.events"] else 0.0),
        "sim.vector_cells": sum(1 for path in paths
                                if not path.startswith("scalar")),
        "sim.scalar_cells": sum(1 for path in paths
                                if path.startswith("scalar")),
        "core.machine_build_s": tracer.inclusive_s("core.machine_build"),
        "core.busy_fraction": _mean([r.core_busy_fraction for r in done]),
        "ult.picks": tracer.count("ult.pick_next"),
        "ult.switch_ms": sum(r.counters.get("time_switch_ns", 0.0)
                             for r in done) / 1e6,
        "dramcache.miss_ratio": (metrics["dramcache.misses"]
                                 / metrics["dramcache.accesses"]
                                 if metrics["dramcache.accesses"] else 0.0),
        "dramcache.warm_s": tracer.inclusive_s("dramcache.warm"),
        "flash.wa_factor": _mean([c["writes.wa_factor"]
                                  for c in write_cells]),
        "writes.flash_writes_per_app_write": _mean(
            [c.get("writes.flash_writes_per_app_write", 0.0)
             for c in write_cells]),
        "osmodel.faults": tracer.count("osmodel.fault"),
        "snapshot.captures": tracer.count("snapshot.capture"),
        "snapshot.restores": tracer.count("snapshot.restore"),
    })
    return metrics
