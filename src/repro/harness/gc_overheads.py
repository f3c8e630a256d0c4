"""Sec. VI-D: garbage-collection overheads vs flash capacity.

The paper argues a 256 GiB flash blocks ~4% of requests behind GC while
a 1 TiB device (4x the planes) blocks <1%, and that asynchronous writes
keep GC off the critical path.  We regenerate the capacity scaling from
the analytic blocking model and validate the off-critical-path claim
with a write-heavy device simulation measuring the actually-observed
blocked fraction.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.config import FlashConfig
from repro.flash import FlashDevice
from repro.harness.common import ExperimentResult
from repro.harness.parallel import map_tasks
from repro.sim import Engine, spawn
from repro.units import GIB

CAPACITIES_GIB: Sequence[int] = (128, 256, 512, 1024)

# Independent stress-device seeds for the measured cross-check; they
# fan out through the parallel harness and are averaged, so the
# reported fraction is identical at any job count.
STRESS_SEEDS: Sequence[int] = (7, 11, 13)


def simulate_blocked_fraction(num_pages: int = 512,
                              hot_pages: int = 8,
                              writes: Optional[int] = None,
                              reads: int = 2000,
                              seed: int = 7) -> float:
    """Measured GC-blocked read fraction on a small, GC-heavy device.

    ``writes`` defaults to the device's physical page count: the
    overwrites of the hot pages then need more fresh pages than the
    free pool holds, so GC must reclaim while the reads are in flight.
    """
    import random
    rng = random.Random(seed)
    engine = Engine()
    config = FlashConfig(channels=2, dies_per_channel=1, planes_per_die=2,
                         pages_per_block=8, overprovisioning=0.5)
    device = FlashDevice(engine, config, num_pages)
    if writes is None:
        writes = device.ftl.physical_pages

    def writer():
        for index in range(writes):
            yield device.write(index % hot_pages)

    def reader():
        for _ in range(reads):
            yield device.read(rng.randrange(num_pages))

    spawn(engine, writer())
    spawn(engine, reader())
    engine.run()
    return device.gc.blocked_fraction()


def run(scale="quick", jobs: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        experiment="gc_overheads",
        title="Sec. VI-D: GC-blocked request fraction vs flash capacity",
        columns=["capacity_gib", "analytic_blocked_fraction"],
        notes=("Paper: ~4% blocked at 256 GiB, <1% at 1 TiB. The "
               "simulated write-heavy device below (one write per "
               "physical page, so GC must reclaim) cross-checks that "
               "the blocking path is actually exercised."),
    )
    base = FlashConfig()
    for capacity in CAPACITIES_GIB:
        config = dataclasses.replace(base, capacity_bytes=capacity * GIB)
        result.add_row(capacity, config.gc_blocked_fraction)
    fractions = map_tasks(
        simulate_blocked_fraction,
        [{"seed": seed} for seed in STRESS_SEEDS],
        jobs=jobs,
    )
    measured = sum(fractions) / len(fractions)
    result.measurements["stress_blocked_fraction"] = measured
    result.notes += (
        f"\nMeasured blocked fraction (stress device, mean of "
        f"{len(STRESS_SEEDS)} seeds): {measured:.2%}"
    )
    return result
