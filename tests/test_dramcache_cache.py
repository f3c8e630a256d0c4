"""Integration tests: DRAM cache + controllers + flash refills."""

import dataclasses

import pytest

from repro.config import DramCacheConfig, FlashConfig
from repro.config.system import WritesConfig
from repro.dramcache import DramCache, DramCacheOrganization, build_timing
from repro.flash import FlashDevice
from repro.sim import Engine, spawn
from repro.units import US
from repro.writes import make_admission


def make_cache(cache_pages=64, assoc=4, dataset_pages=512, msr_entries=32,
               admission=None, **cache_overrides):
    engine = Engine()
    flash_config = FlashConfig(
        channels=2, dies_per_channel=1, planes_per_die=2,
        pages_per_block=16, overprovisioning=0.5,
    )
    flash = FlashDevice(engine, flash_config, dataset_pages)
    cache_config = dataclasses.replace(
        DramCacheConfig(associativity=assoc, msr_entries=msr_entries),
        **cache_overrides,
    )
    cache = DramCache(engine, cache_config, cache_pages, flash,
                      admission=admission)
    return engine, cache, flash


def test_warm_then_hit():
    engine, cache, flash = make_cache()
    cache.warm(range(16))
    result = cache.access(3)
    assert result.hit
    timing = build_timing(cache.config)
    assert result.latency_ns == pytest.approx(timing.hit_latency_ns)


def test_miss_refills_from_flash_and_then_hits():
    engine, cache, flash = make_cache()
    latencies = []

    def missing_thread():
        result = cache.access(100)
        assert not result.hit
        start = engine.now
        yield result.completion
        latencies.append(engine.now - start)
        replay = cache.access(100)
        assert replay.hit

    spawn(engine, missing_thread())
    engine.run()
    # The refill includes the ~50 us flash read.
    assert latencies[0] >= 50.0 * US
    assert latencies[0] < 70.0 * US
    assert flash.stats["reads"] == 1


def test_concurrent_misses_to_same_page_coalesce():
    engine, cache, flash = make_cache()
    completions = []

    def thread(tag):
        result = cache.access(200)
        assert not result.hit
        yield result.completion
        completions.append(tag)

    for tag in range(3):
        spawn(engine, thread(tag))
    engine.run()
    assert sorted(completions) == [0, 1, 2]
    assert flash.stats["reads"] == 1  # one refill serves all three
    assert cache.frontside.stats["coalesced_misses"] == 2


def test_write_miss_installs_dirty():
    engine, cache, flash = make_cache()

    def writer():
        result = cache.access(50, is_write=True)
        assert not result.hit
        yield result.completion

    spawn(engine, writer())
    engine.run()
    assert cache.organization.dirty_count() == 1


def test_dirty_eviction_writes_back_to_flash():
    # One-set cache so we control evictions precisely.
    engine, cache, flash = make_cache(cache_pages=4, assoc=4)
    num_sets = cache.organization.num_sets
    assert num_sets == 1

    def driver():
        # Fill all 4 ways with dirty pages via write misses.
        for page in range(4):
            result = cache.access(page, is_write=True)
            yield result.completion
        # A 5th page forces a dirty eviction.
        result = cache.access(4)
        yield result.completion
        # Give the async writeback time to finish.
        yield 2000.0 * US

    spawn(engine, driver())
    engine.run()
    assert cache.backside.stats["dirty_writebacks"] == 1
    assert flash.stats["writes"] == 1


def test_miss_ratio_reporting():
    engine, cache, flash = make_cache()
    cache.warm(range(8))
    done = []

    def driver():
        for page in range(8):
            assert cache.access(page).hit
        result = cache.access(400)
        yield result.completion
        done.append(True)

    spawn(engine, driver())
    engine.run()
    assert cache.miss_ratio() == pytest.approx(1 / 9)


def test_msr_capacity_backpressures_admission():
    # MSR of 2 with many distinct misses: all eventually complete.
    engine, cache, flash = make_cache(msr_entries=2)
    completed = []

    def thread(page):
        result = cache.access(page)
        assert not result.hit
        yield result.completion
        completed.append(page)

    pages = [100 + i for i in range(8)]
    for page in pages:
        spawn(engine, thread(page))
    engine.run()
    assert sorted(completed) == pages
    assert cache.backside.msr.peak_occupancy <= 2
    assert cache.backside.msr.stats["full_stalls"] > 0


def test_outstanding_misses_visible():
    engine, cache, flash = make_cache()
    result = cache.access(300)
    assert not result.hit
    # Let the BC accept it.
    engine.run(until=1.0 * US)
    assert cache.outstanding_misses == 1
    engine.run()
    assert cache.outstanding_misses == 0


def test_flat_partition_latency_is_one_dram_access():
    engine, cache, flash = make_cache()
    flat = cache.flat_access_latency_ns()
    timing = build_timing(cache.config)
    # Flat rows skip the tag machinery: never slower than a cached hit
    # (equal when way prediction overlaps the tag check).
    assert flat <= timing.hit_latency_ns
    # Without way prediction the serialized tag probe costs extra.
    import dataclasses
    serialized = build_timing(
        dataclasses.replace(cache.config, way_prediction=False)
    )
    assert flat < serialized.hit_latency_ns


ACCESS_SEQUENCE = [(3, False), (5, True), (3, False), (100, False),
                   (100, True), (100, False), (7, True), (200, True),
                   (200, False)]


def drive_cache(policy, via_probe):
    """Run ACCESS_SEQUENCE (each miss waits and replays) through
    ``DramCache.access``, or through ``probe`` + ``frontside.miss`` as
    the runner's hot loops bind them."""
    admission = None if policy is None else make_admission(
        WritesConfig(enabled=True, admission_policy=policy))
    engine, cache, flash = make_cache(admission=admission)
    # Counters appear only once incremented.
    assert "accesses" not in cache.frontside.stats.as_dict()
    assert "hits" not in cache.organization.stats.as_dict()
    cache.warm(range(16))
    probe, miss = cache.probe, cache.frontside.miss

    def access(page, is_write):
        """The miss result, or None on a hit."""
        if via_probe:
            return None if probe(page, is_write) else miss(page, is_write)
        result = cache.access(page, is_write)
        return None if result.hit else result

    def thread(page, is_write):
        result = access(page, is_write)
        if result is not None:
            yield result.completion
            assert access(page, is_write) is None

    for page, is_write in ACCESS_SEQUENCE:
        spawn(engine, thread(page, is_write))
    engine.run()
    return cache, flash


@pytest.mark.parametrize("policy", [None, "write-through", "readiness"])
def test_access_count_splits_into_hits_misses_and_coalesced(policy):
    cache, flash = drive_cache(policy, via_probe=False)
    fc = cache.frontside.stats
    org = cache.organization.stats
    assert fc["misses"] == 2
    assert fc["coalesced_misses"] == 3
    assert fc["accesses"] == org["hits"] + fc["misses"] + fc["coalesced_misses"]
    assert list(fc.as_dict())[:3] == ["accesses", "misses",
                                      "coalesced_misses"]
    # The runner-bound probe counts and touches exactly as access does:
    # FC counters, org hits/misses, LRU and dirty state, app writes.
    probed, probed_flash = drive_cache(policy, via_probe=True)
    assert probed.frontside.stats.as_dict() == fc.as_dict()
    assert (probed.organization.dump_state()
            == cache.organization.dump_state())
    assert probed_flash.stats.as_dict() == flash.stats.as_dict()


def test_bare_organization_counts_hits_and_misses_without_accesses():
    org = DramCacheOrganization(num_pages=64, associativity=4)
    assert not org.lookup(5)
    org.populate(5)
    assert org.lookup(5)
    assert org.stats["hits"] == 1
    assert org.stats["misses"] == 1
    assert "accesses" not in org.stats.as_dict()
