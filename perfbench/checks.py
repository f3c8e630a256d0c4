"""Output checks on each cell, the Fig. 9 ordering, and result digests."""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Sequence

from repro.harness.fig9 import _geomean
from repro.loadgen.schema import DEFAULT_BACKLOG_THRESHOLD

#: The paper's Fig. 9 geomean throughput, normalized to DRAM-only
#: (simulated on QFlex; the model is not validated against hardware).
PAPER_FIG9 = {"astriflash": 0.95, "astriflash-ideal": 0.96,
              "os-swap": 0.58, "flash-sync": 0.27}

#: Fig. 9 may not show a flash system faster than DRAM-only by more.
FIG9_CEILING = 1.05


def cell_problems(spec, result) -> List[str]:
    """Why ``result`` is not a valid output for ``spec`` (empty if valid)."""
    problems = []
    if result.completed_jobs <= 0:
        problems.append("no completed jobs")
    if not 0.0 <= result.miss_ratio <= 1.0:
        problems.append(f"miss ratio {result.miss_ratio} outside [0, 1]")
    unfinished = result.queued_jobs + result.inflight_jobs
    offered = result.completed_jobs + result.unfinished_jobs
    if (result.unfinished_jobs != unfinished
            or not math.isclose(result.backlog_fraction * offered,
                                result.unfinished_jobs, abs_tol=1e-9)):
        problems.append("offered jobs != completed + unfinished")
    if (spec.arrivals is not None
            and result.backlog_fraction > DEFAULT_BACKLOG_THRESHOLD):
        problems.append(f"open-loop backlog {result.backlog_fraction:.3f} "
                        f"above the {DEFAULT_BACKLOG_THRESHOLD} censor "
                        "threshold")
    wa_factor = result.counters.get("writes.wa_factor")
    if wa_factor is not None and wa_factor < 1.0:
        problems.append(f"write amplification {wa_factor} below 1")
    return problems


def fig9_norms(specs: Sequence, results: Sequence) -> Dict[str, float]:
    """Geomean over workloads of each preset's throughput / DRAM-only's,
    as ``repro run fig9`` reports it; presets missing a cell are left out."""
    baseline = {spec.workload_name: result.throughput_jobs_per_s
                for spec, result in zip(specs, results)
                if result is not None and spec.config_name == "dram-only"}
    ratios: Dict[str, List[float]] = {}
    for spec, result in zip(specs, results):
        if spec.config_name == "dram-only" \
                or spec.workload_name not in baseline:
            continue
        ratios.setdefault(spec.config_name, []).append(
            None if result is None
            else result.throughput_jobs_per_s / baseline[spec.workload_name])
    workloads = len({spec.workload_name for spec in specs})
    return {preset: _geomean(values) for preset, values in ratios.items()
            if len(values) == workloads and None not in values}


def fig9_order_violations(norms: Dict[str, float]) -> List[str]:
    """Presets breaking flash-sync < os-swap < astriflash <= 1.05."""
    bad = set()
    chain = ("flash-sync", "os-swap", "astriflash")
    for low, high in zip(chain, chain[1:]):
        if low in norms and high in norms and not norms[low] < norms[high]:
            bad.update((low, high))
    if norms.get("astriflash", 0.0) > FIG9_CEILING:
        bad.add("astriflash")
    return sorted(bad)


def digest(result) -> Optional[str]:
    """Digest of every deterministic simulated statistic of a result.

    Wall-clock fields are left out (``metrics_from_result`` drops them),
    and so are the kernel's own ``engine.`` counters, which a speed-only
    change to the event kernel may legitimately alter.
    """
    if result is None:
        return None
    stats = sorted((key, value) for key, value
                   in result.metrics().as_dict().items()
                   if not key.startswith("engine/"))
    return hashlib.sha256(repr(stats).encode()).hexdigest()[:16]
