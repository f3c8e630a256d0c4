"""The benchmark's four workloads, each a list of ``RunSpec`` cells.

Every workload is what a user runs as one sweep; it is chosen to load
some layers of the simulator and to bypass others, so that a change to
one layer shows on one workload and shows *no* change on another
(``idle_layers`` / ``vector_cells`` below state those predictions).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.harness import fig9
from repro.harness.common import QUICK
from repro.harness.parallel import RunSpec, poisson
from repro.writes.bench import (
    KV_SWEEP_OVERRIDES,
    POLICY_ORDER,
    writes_overrides,
    writes_scale,
)

#: Closed-loop AstriFlash capacity (aggregate jobs/s over the quick
#: scale's 2 cores, 20 ms window, seed 42), measured when this
#: benchmark was defined.  ``astriflash-open`` offers a fixed share of
#: it, so the open loop is loaded but never saturated.
ASTRIFLASH_CAPACITY = {"tatp": 340_900.0, "tpcc": 171_900.0,
                       "masstree": 213_650.0}
OPEN_LOOP_LOAD = 0.7

DRAM_LONG = dataclasses.replace(QUICK, name="dram-long",
                                measurement_us=60_000.0)
ASTRIFLASH_OPEN = dataclasses.replace(QUICK, name="astriflash-open",
                                      measurement_us=20_000.0)
KV_WRITES = dataclasses.replace(writes_scale(QUICK), name="kv-writes",
                                measurement_us=60_000.0)
KV_WRITE_RATIO = 0.3


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    why: str
    build: Callable[[int], List[RunSpec]]
    #: Layers whose entry points the traced run must see no call to.
    idle_layers: Tuple[str, ...] = ()
    #: Required number of cells on a vector loop (None = no prediction).
    vector_cells: Optional[int] = None


def _fig9_quick(seed: int) -> List[RunSpec]:
    # The grid exactly as ``repro run fig9 --scale quick`` builds it.
    return [RunSpec(config_name, workload_name, QUICK, seed=seed)
            for workload_name in QUICK.workloads
            for config_name in fig9.CONFIGS]


def _dram_long(seed: int) -> List[RunSpec]:
    return [RunSpec("dram-only", workload_name, DRAM_LONG, seed=seed)
            for workload_name in QUICK.workloads]


def _astriflash_open(seed: int) -> List[RunSpec]:
    specs = []
    for workload_name, capacity in ASTRIFLASH_CAPACITY.items():
        # poisson() takes the per-core mean gap.
        gap_ns = ASTRIFLASH_OPEN.num_cores * 1e9 / (OPEN_LOOP_LOAD * capacity)
        specs.append(RunSpec("astriflash", workload_name, ASTRIFLASH_OPEN,
                             seed=seed, arrivals=poisson(gap_ns, seed=seed)))
    return specs


def _kv_writes(seed: int) -> List[RunSpec]:
    overrides = tuple(sorted(KV_SWEEP_OVERRIDES
                             + (("write_ratio", KV_WRITE_RATIO),)))
    return [RunSpec("astriflash-writes", "kvstore", KV_WRITES, seed=seed,
                    workload_overrides=overrides,
                    config_overrides=writes_overrides(policy))
            for policy in POLICY_ORDER]


def cell_label(spec: RunSpec) -> str:
    """A name unique within a workload (the write cells differ only in
    their admission-policy override)."""
    return spec.label() + "".join(f" {path}={value}"
                                  for path, value in spec.config_overrides)


WORKLOADS = {workload.name: workload for workload in (
    BenchWorkload(
        "fig9-quick",
        "the Fig. 9 quick grid users run; set-up heavy; the only workload "
        "with OS-Swap and shared warm snapshots, and with paper reference "
        "values",
        _fig9_quick),
    BenchWorkload(
        "dram-long",
        "DRAM-only closed loop, 60 ms windows: vector merged-horizon loop "
        "and step generation do the work; DRAM cache, ULT and flash are "
        "bypassed",
        _dram_long,
        idle_layers=("dramcache", "ult", "flash", "writes", "osmodel"),
        vector_cells=3),
    BenchWorkload(
        "astriflash-open",
        "AstriFlash open loop at 0.7 of capacity: ULT scheduling, FC/BC/MSR "
        "and flash reads on the scalar engine; vector-only changes should "
        "not move it",
        _astriflash_open,
        idle_layers=("writes", "osmodel"),
        vector_cells=0),
    BenchWorkload(
        "kv-writes",
        "kvstore at 30% SETs under three admission policies: flash "
        "programs, GC and dirty writeback, so read-path gains that cost "
        "the write path show",
        _kv_writes,
        idle_layers=("osmodel",),
        vector_cells=0),
)}
