"""DRAM-cache facade: organization + timing + both controllers.

`DramCache` is the single object the rest of the system talks to.  It
also owns the hybrid DRAM partition (Sec. IV-A): a slice of DRAM rows
exposed flat to the OS so page tables stay DRAM-resident.  With
partitioning disabled (`AstriFlash-noDP`), page-table accesses go
through the cached partition like any other page and can miss to flash.
"""

from __future__ import annotations

from typing import Iterable

from repro.config.system import DramCacheConfig
from repro.dramcache.controllers import (
    AccessResult,
    BacksideController,
    FrontsideController,
)
from repro.dramcache.organization import DramCacheOrganization
from repro.dramcache.timing import DramCacheTiming, build_timing, flat_partition_access_ns
from repro.flash.device import FlashDevice
from repro.sim import Engine
from repro.stats import CounterSet


class DramCache:
    """A hardware-managed, page-granularity DRAM cache over flash."""

    def __init__(self, engine: Engine, config: DramCacheConfig,
                 cache_pages: int, flash: FlashDevice,
                 admission=None) -> None:
        self.engine = engine
        self.config = config
        self.timing: DramCacheTiming = build_timing(config)
        self.organization = DramCacheOrganization(
            num_pages=cache_pages, associativity=config.associativity
        )
        self.backside = BacksideController(
            engine, config, self.timing, self.organization, flash,
            admission=admission,
        )
        self.frontside = FrontsideController(
            engine, config, self.timing, self.organization, self.backside,
        )
        self.flash = flash
        self.stats = CounterSet("dram-cache")
        # Write-path admission policy (DESIGN.md §4j); None on the
        # default path.
        self._admission = admission
        # All hits look alike and callers never mutate results, so one
        # shared instance serves every hit.
        self._hit_result = AccessResult(True, self.timing.hit_latency_ns)
        # The FC access counter's value cell, bound at the first
        # access so the key stays absent until then.
        self._accesses_cell = None

    # -- data path ------------------------------------------------------------

    def access(self, page: int, is_write: bool = False) -> AccessResult:
        """One request from the on-chip hierarchy.

        The frontside controller's hit decision, made here so that a
        hit costs this call plus the tag probe in
        :meth:`DramCacheOrganization.lookup`: count the access, run the
        admission hooks, probe.  Hits return immediately with the full
        hit latency; a miss continues in
        :meth:`FrontsideController.miss`.
        """
        cell = self._accesses_cell
        if cell is None:
            cell = self._accesses_cell = self.frontside.accesses.cell()
        cell[0] += 1.0
        admission = self._admission
        if admission is not None:
            if is_write:
                # Application stores, window-scoped later by the GC
                # baselines; on the flash stats so they reach results.
                self.flash.stats.add("app_writes")
                if admission.propagate_writes:
                    self.backside.write_through(page)
            else:
                admission.observe_read(page)
        if self.organization.lookup(page, is_write):
            return self._hit_result
        return self.frontside.miss(page, is_write)

    def access_run(self, pages, writes, start: int = 0,
                   stop=None) -> int:
        """Batched leading-hit probe (vector backend; see FC docs)."""
        return self.frontside.access_run(pages, writes, start, stop)

    @property
    def hit_latency_ns(self) -> float:
        """The constant in-DRAM hit latency every hit is charged."""
        return self.timing.hit_latency_ns

    def flat_access_latency_ns(self) -> float:
        """Latency of a flat-partition access (page tables under
        DRAM partitioning)."""
        return flat_partition_access_ns(self.config)

    # -- warmup -----------------------------------------------------------------

    def warm(self, pages: Iterable[int]) -> None:
        """Pre-populate the cache (most-recent page wins LRU)."""
        for page in pages:
            self.organization.populate(page)
            self.stats.add("warmed_pages")

    # -- reporting -----------------------------------------------------------------

    def miss_ratio(self) -> float:
        return self.frontside.miss_ratio()

    @property
    def outstanding_misses(self) -> int:
        return self.backside.outstanding_misses

    @property
    def capacity_pages(self) -> int:
        return self.organization.capacity_pages
