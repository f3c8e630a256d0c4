"""Machine assembly: wire the substrates for one configuration.

A :class:`Machine` owns the simulation engine and builds, per the
configured :class:`~repro.config.PagingMode`:

* the flash device (all flash-backed modes);
* the hardware DRAM cache (AstriFlash variants and Flash-Sync — the
  latter is FlatFlash-style: same hardware cache, but the core waits
  synchronously on misses);
* the OS demand pager + resident set (OS-Swap);
* per-core :class:`~repro.cpu.CoreModel` and, for AstriFlash, the
  per-core user-level thread library;
* the page-table page space used by the `noDP` ablation (page tables
  live in flash-backed cached space when partitioning is off).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.config.system import (
    PagingMode,
    SchedulingPolicy,
    SystemConfig,
    UltConfig,
)
from repro.cpu.core import CoreModel
from repro.dramcache.cache import DramCache
from repro.dramcache.timing import flat_partition_access_ns
from repro.errors import ConfigurationError
from repro.flash.device import FlashDevice
from repro.osmodel.paging import DemandPager
from repro.osmodel.resident import ResidentSetManager
from repro.sim import Engine
from repro.ult.library import ThreadLibrary

#: Steps of functional warm-up before the measurement window: the
#: default of :meth:`Machine.warm_caches` and the length every warm
#: snapshot key names (:func:`repro.snapshot.warm_key`).
DEFAULT_WARM_STEPS = 50_000

# Page-table granularity: data pages covered per PT leaf page.  Real
# hardware packs 512 8-byte PTEs per 4 KiB page; the scaled simulation
# uses a smaller fan-out so the PT working set keeps the same relation
# to the (scaled) DRAM cache — PT leaves covering cold data regions
# must be evictable, which is the behaviour the `noDP` ablation
# measures (DESIGN.md records this scaling substitution).
PTES_PER_PAGE = 16


class Machine:
    """All hardware/OS state for one simulated server."""

    def __init__(self, config: SystemConfig) -> None:
        config.validate()
        self.config = config
        self.engine = Engine()

        dataset_pages = config.scaled_dataset_pages
        self.dataset_pages = dataset_pages
        # Page-table leaf pages sit above the dataset in the flash-
        # mapped physical space (used by AstriFlash-noDP walks).
        self.pt_base_page = dataset_pages
        self.pt_pages = max(1, dataset_pages // PTES_PER_PAGE)
        total_flash_pages = dataset_pages + self.pt_pages

        self.flash: Optional[FlashDevice] = None
        self.dram_cache: Optional[DramCache] = None
        self.pager: Optional[DemandPager] = None

        mode = config.mode
        if mode is not PagingMode.DRAM_ONLY:
            self.flash = FlashDevice(self.engine, config.flash,
                                     total_flash_pages,
                                     faults=config.faults,
                                     writes=config.writes)
        # DRAM→flash admission policy (DESIGN.md §4j): built only when
        # the write path is enabled, so the default controllers keep
        # their original branches.  Imported lazily — the writes
        # package pulls the harness, which imports this module.
        self.admission = None
        if (config.writes.enabled
                and mode in (PagingMode.ASTRIFLASH, PagingMode.FLASH_SYNC)):
            from repro.writes.admission import make_admission

            self.admission = make_admission(config.writes)
        if mode in (PagingMode.ASTRIFLASH, PagingMode.FLASH_SYNC):
            self.dram_cache = DramCache(
                self.engine, config.dram_cache,
                cache_pages=config.scaled_dram_cache_pages,
                flash=self.flash,
                admission=self.admission,
            )
        elif mode is PagingMode.OS_SWAP:
            resident = ResidentSetManager(config.scaled_dram_cache_pages)
            self.pager = DemandPager(self.engine, config.os, resident,
                                     self.flash, config.num_cores)

        self.cores: List[CoreModel] = [
            CoreModel(core_id, config.core)
            for core_id in range(config.num_cores)
        ]
        self.libraries: List[Optional[ThreadLibrary]] = []
        if mode is PagingMode.ASTRIFLASH:
            self.libraries = [
                ThreadLibrary(core.core_id, config.ult,
                              registers=core.registers)
                for core in self.cores
            ]
        elif mode is PagingMode.OS_SWAP:
            # OS-Swap multiplexes kernel threads: the same switch-on-
            # stall structure but with OS context-switch costs and no
            # pending-queue limit (the kernel's run queue is unbounded).
            kernel_threads = UltConfig(
                threads_per_core=config.os.kernel_threads_per_core,
                switch_latency_ns=config.os.context_switch_ns,
                policy=SchedulingPolicy.PRIORITY_AGING,
                pending_queue_limit=config.os.kernel_threads_per_core,
            )
            self.libraries = [
                ThreadLibrary(core.core_id, kernel_threads)
                for core in self.cores
            ]
        else:
            self.libraries = [None] * config.num_cores

        # Flat-DRAM access latency (page tables under partitioning,
        # and the DRAM-only system's memory latency).
        self.flat_dram_latency_ns = flat_partition_access_ns(config.dram_cache)

    # -- page-table placement ---------------------------------------------------

    def page_table_page(self, data_page: int) -> int:
        """The PT leaf page translating ``data_page``."""
        if not 0 <= data_page < self.dataset_pages:
            raise ConfigurationError(
                f"data page {data_page} outside the dataset"
            )
        return self.pt_base_page + (data_page // PTES_PER_PAGE) % self.pt_pages

    @property
    def page_tables_in_flash_space(self) -> bool:
        """True when walks go through the DRAM cache (noDP ablation)."""
        return (self.config.mode is PagingMode.ASTRIFLASH
                and not self.config.dram_cache.partitioning_enabled)

    # -- warmup ----------------------------------------------------------------

    def warm_caches(self, workload,
                    num_steps: int = DEFAULT_WARM_STEPS) -> None:
        """Pre-populate the DRAM tier with a functional access trace so
        measurements start from steady state rather than a cold cache."""
        target = (self.dram_cache.organization if self.dram_cache is not None
                  else self.pager.resident if self.pager is not None
                  else None)
        if target is None:
            return
        # Hot loop (tens of thousands of steps per run): hoist the
        # tier dispatch out of the loop and bind the per-step calls
        # once; jobs always run to completion, as before.
        steps_done = 0
        if self.dram_cache is not None:
            warm_job = self.dram_cache.organization.warm_job
            while steps_done < num_steps:
                steps_done += warm_job(workload.make_job().steps)
        else:
            insert = self.pager.resident.insert
            while steps_done < num_steps:
                for _, page, is_write in workload.make_job().steps:
                    insert(page, dirty=is_write)
                    steps_done += 1

    # -- warm-state snapshot (repro.snapshot) -----------------------------------

    def dump_warm_state(self) -> Dict[str, object]:
        """Picklable dump of everything :meth:`warm_caches` mutates on
        the machine: the DRAM tier (cache tags or resident set).

        Only meaningful at the warm/measure boundary — warmup is
        functional (the engine has not run), so the dump refuses a
        machine whose clock has advanced.
        """
        if self.engine.now != 0 or self.engine.events_executed != 0:
            raise ConfigurationError(
                "warm-state dump after the engine has run; snapshots "
                "capture the warm/measure boundary only"
            )
        # Keyed by tier, not paging mode: AstriFlash variants and
        # Flash-Sync share the same hardware DRAM cache, so their warm
        # state is interchangeable (repro.snapshot keys them together).
        state: Dict[str, object] = {}
        if self.dram_cache is not None:
            state["dram_cache"] = self.dram_cache.organization.dump_state()
        if self.pager is not None:
            state["resident"] = self.pager.resident.dump_state()
        return state

    def load_warm_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`dump_warm_state` dump into this (freshly
        built, never-run) machine, in place of :meth:`warm_caches`."""
        if self.engine.now != 0 or self.engine.events_executed != 0:
            raise ConfigurationError(
                "warm-state restore after the engine has run"
            )
        if ("dram_cache" in state) != (self.dram_cache is not None):
            raise ConfigurationError("warm-state tier mismatch (dram cache)")
        if ("resident" in state) != (self.pager is not None):
            raise ConfigurationError("warm-state tier mismatch (resident)")
        if self.dram_cache is not None:
            self.dram_cache.organization.load_state(state["dram_cache"])
        if self.pager is not None:
            self.pager.resident.load_state(state["resident"])

    def state_fingerprint(self) -> str:
        """Digest of the machine's warm-affected state plus engine
        position.  Equal fingerprints after fresh-warm vs
        snapshot-restore is the bit-identical contract the tests
        enforce."""
        parts: List[object] = [self.config.mode.name, self.engine.now,
                               self.engine.events_executed]
        if self.dram_cache is not None:
            parts.append(sorted(
                self.dram_cache.organization.dump_state().items()))
        if self.pager is not None:
            parts.append(sorted(self.pager.resident.dump_state().items()))
        if self.flash is not None:
            # Device-side activity (reads, GC, retries) — pins the
            # flash path in the scalar-vs-vector identity contract on
            # top of the snapshot contract above (both tiers are empty
            # at the warm/measure boundary, so snapshot comparisons
            # are unaffected).
            parts.append(sorted(self.flash.stats.as_dict().items()))
            parts.append(sorted(self.flash.ftl.stats.as_dict().items()))
        return hashlib.sha256(repr(parts).encode()).hexdigest()
