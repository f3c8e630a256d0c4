"""Property-based tests: DRAM-cache organization and FTL invariants
under random operation sequences."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dramcache import DramCacheOrganization
from repro.errors import CapacityError, ProtocolError
from repro.flash.ftl import PageMappingFtl


class TestOrganizationProperties:
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_populate_never_duplicates_or_overflows(self, pages):
        org = DramCacheOrganization(num_pages=16, associativity=4)
        for page in pages:
            org.populate(page)
            assert org.occupancy() <= org.capacity_pages
        # No page may be resident in two ways at once.
        resident = [
            way.page
            for ways in org._sets for way in ways if way.valid
        ]
        counts = Counter(resident)
        assert all(count == 1 for count in counts.values())

    @given(st.lists(st.tuples(st.integers(0, 31), st.booleans()),
                    min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_miss_then_refill_makes_page_resident(self, accesses):
        org = DramCacheOrganization(num_pages=8, associativity=2)
        for page, is_write in accesses:
            hit = org.lookup(page, is_write)
            if not hit and not org.is_reserved(page):
                org.reserve_victim(page)
                org.install(page, dirty=is_write)
            assert org.contains(page) or org.is_reserved(page)
        # Stats are consistent.
        total = org.stats["hits"] + org.stats["misses"]
        assert total == len(accesses)

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=50,
                    unique=True))
    @settings(max_examples=40, deadline=None)
    def test_reservations_bounded_by_ways(self, pages):
        org = DramCacheOrganization(num_pages=4, associativity=4)
        reserved = 0
        for page in pages:
            try:
                org.reserve_victim(page)
                reserved += 1
            except ProtocolError:
                break
        assert reserved <= 4


class TestFtlProperties:
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=400),
           st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_write_streams_preserve_mapping(self, writes, planes):
        ftl = PageMappingFtl(num_logical_pages=16, num_planes=planes,
                             pages_per_block=4, overprovisioning=0.9)
        written = set()
        for page in writes:
            # Run GC to exhaustion before the write if under pressure.
            plane = ftl.plane_of(page)
            while ftl.gc_pressure(plane):
                if ftl.collect(plane) == (0, 0):
                    break
            try:
                ftl.write(page)
            except CapacityError:
                break
            written.add(page)
        # Every written page maps to exactly one valid physical slot.
        valid_pages = []
        for plane in ftl.planes:
            for block in plane.blocks:
                for logical in block.valid:
                    if logical is not None:
                        valid_pages.append(logical)
        counts = Counter(valid_pages)
        assert set(counts) == written
        assert all(count == 1 for count in counts.values())

    @given(st.integers(2, 8), st.integers(20, 120))
    @settings(max_examples=30, deadline=None)
    def test_gc_conserves_valid_data(self, hot_pages, num_writes):
        ftl = PageMappingFtl(num_logical_pages=16, num_planes=1,
                             pages_per_block=4, overprovisioning=0.9)
        for index in range(num_writes):
            page = index % hot_pages
            while ftl.gc_pressure(0):
                if ftl.collect(0) == (0, 0):
                    break
            ftl.write(page)
        plane = ftl.planes[0]
        valid = sum(block.valid_count for block in plane.blocks)
        assert valid == min(hot_pages, num_writes)

    @given(st.lists(st.tuples(st.sampled_from(("write", "collect")),
                              st.integers(0, 15)),
                    min_size=1, max_size=300),
           st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_valid_counts_match_bitmaps(self, ops, planes):
        # Each block's running valid-page count must equal the count
        # its bitmap implies after every write, GC pass and migration.
        ftl = PageMappingFtl(num_logical_pages=16, num_planes=planes,
                             pages_per_block=4, overprovisioning=0.9)
        for op, page in ops:
            plane = ftl.plane_of(page)
            try:
                if op == "collect":
                    ftl.collect(plane)
                else:
                    while ftl.gc_pressure(plane):
                        if ftl.collect(plane) == (0, 0):
                            break
                    ftl.write(page)
            except CapacityError:
                break
            for state in ftl.planes:
                for block in state.blocks:
                    assert block.valid_count == sum(
                        1 for logical in block.valid if logical is not None)


class TestTagIndexCoherence:
    """The cache-wide ``page -> Way`` dicts are an index over the way
    lists, not the source of truth; any operation sequence must leave
    the two views identical (the organization-module invariants)."""

    @given(st.lists(
        st.tuples(
            st.sampled_from(("lookup", "write", "reserve", "install",
                             "cancel", "populate")),
            st.integers(0, 63),
        ),
        min_size=1, max_size=250,
    ))
    @settings(max_examples=60, deadline=None)
    def test_dict_views_match_way_lists(self, operations):
        org = DramCacheOrganization(num_pages=32, associativity=4)
        for op, page in operations:
            if op == "lookup":
                org.lookup(page)
            elif op == "write":
                org.lookup(page, is_write=True)
            elif op == "reserve":
                if not org.is_reserved(page) and not org.contains(page):
                    try:
                        org.reserve_victim(page)
                    except ProtocolError:
                        pass  # every way of the set reserved
            elif op == "install":
                if org.is_reserved(page):
                    org.install(page)
            elif op == "cancel":
                if org.is_reserved(page):
                    org.cancel_reservation(page)
            elif op == "populate":
                if not org.is_reserved(page):
                    try:
                        org.populate(page)
                    except ProtocolError:
                        pass  # every way of the set reserved

            valid_view = {}
            reserved_view = {}
            for ways in org._sets:
                for way in ways:
                    if way.page is not None:
                        assert way.page not in valid_view  # one way a page
                        valid_view[way.page] = way
                    if way.reserved_for is not None:
                        assert way.reserved_for not in reserved_view
                        reserved_view[way.reserved_for] = way
            # A page is indexed iff some way holds it (or is reserved
            # for it), and the index names that very way.
            assert org._tags == valid_view
            assert org._reserved == reserved_view
            # Every indexed way sits in the set its page maps to.
            for index in (org._tags, org._reserved):
                for page, way in index.items():
                    assert any(member is way
                               for member in org._sets[org.set_index(page)])
            # A reserved way never simultaneously holds a page.
            assert all(way.page is None
                       for way in reserved_view.values())
