"""Set-associative, page-granularity DRAM-cache organization.

The DRAM cache stores 4 KiB pages; each DRAM row is one set holding
``associativity`` ways plus an 8-byte tag per way in the same row
(Sec. IV-B, Fig. 5a).  Tags therefore cost a serialized RAS+CAS before
data access — the timing model in :mod:`repro.dramcache.timing` charges
for that.

This module is purely functional state: lookups, LRU, installs,
reservations (ways claimed for in-flight refills) and evictions.

Tag probes are the single hottest substrate operation in the simulator
(every access, warmup step, and replay goes through them), so each set
maintains a ``page -> Way`` dict for valid tags and another for
in-flight reservations alongside the way list.  The dicts are an
*index*, not the source of truth: LRU and victim selection still walk
the way list, preserving the original tie-breaking order exactly.  Two
invariants keep the views coherent (property-tested in
``tests/test_dramcache_organization.py``):

* a way is in the valid index iff ``way.page is not None``;
* a way is in the reserved index iff ``way.reserved_for is not None``
  (and a reserved way always has ``page is None``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError, ProtocolError
from repro.stats import CounterSet
from repro.stats.counters import Counter


class Way:
    """One way of one set: a page frame plus tag metadata."""

    __slots__ = ("page", "dirty", "last_touch", "reserved_for",
                 "access_count")

    def __init__(self) -> None:
        self.page: Optional[int] = None
        self.dirty = False
        self.last_touch = 0
        # Logical page this way is reserved for while a refill is in
        # flight; the way cannot be victimized meanwhile.
        self.reserved_for: Optional[int] = None
        # Accesses during the current residency (footprint training).
        self.access_count = 0

    @property
    def valid(self) -> bool:
        return self.page is not None

    @property
    def reserved(self) -> bool:
        return self.reserved_for is not None


class EvictedPage:
    """A victim page pushed out by a refill."""

    __slots__ = ("page", "dirty", "access_count")

    def __init__(self, page: int, dirty: bool, access_count: int = 0) -> None:
        self.page = page
        self.dirty = dirty
        self.access_count = access_count

    def __repr__(self) -> str:
        flag = "dirty" if self.dirty else "clean"
        return f"<EvictedPage {self.page} {flag}>"


class DramCacheOrganization:
    """Tag/data state for the whole DRAM cache."""

    def __init__(self, num_pages: int, associativity: int) -> None:
        if associativity < 1:
            raise ConfigurationError("associativity must be >= 1")
        if num_pages < associativity:
            raise ConfigurationError("cache smaller than one set")
        self.associativity = associativity
        self.num_sets = num_pages // associativity
        self.capacity_pages = self.num_sets * associativity
        self._sets: List[List[Way]] = [
            [Way() for _ in range(associativity)] for _ in range(self.num_sets)
        ]
        # Per-set tag indexes: page -> Way for valid tags, and
        # reserved_for -> Way for in-flight refills.
        self._tag_index: List[Dict[int, Way]] = [
            {} for _ in range(self.num_sets)
        ]
        self._reserved_index: List[Dict[int, Way]] = [
            {} for _ in range(self.num_sets)
        ]
        # Power-of-two set counts (the common configuration) index with
        # a mask instead of a modulo; identical mapping either way.
        self._set_mask = (self.num_sets - 1
                          if self.num_sets & (self.num_sets - 1) == 0
                          else None)
        self._clock = 0  # LRU timestamp source
        self.stats = CounterSet("dram-cache-org")
        self._hits = self.stats.counter("hits")
        # The hit counter's value cell for lookup(), bound at the
        # first hit so the key stays absent until then.
        self._hit_cell: Optional[List[float]] = None
        self._misses = self.stats.counter("misses")
        # The access counter lookup() bumps: a private one, nobody
        # reads, until count_accesses() hands in the frontside
        # controller's.  Its cell is bound at the first lookup.
        self._access_counter = Counter("accesses", {})
        self._access_cell: Optional[List[float]] = None

    def count_accesses(self, counter: Counter) -> None:
        """Count every :meth:`lookup` on ``counter`` from now on (the
        frontside controller's ``accesses``; its key stays absent
        until the first lookup)."""
        self._access_counter = counter
        self._access_cell = None

    # -- indexing -------------------------------------------------------------

    def set_index(self, page: int) -> int:
        mask = self._set_mask
        if mask is not None:
            return page & mask
        return page % self.num_sets

    def _ways(self, page: int) -> List[Way]:
        return self._sets[self.set_index(page)]

    # -- lookup ---------------------------------------------------------------

    def lookup(self, page: int, is_write: bool = False) -> bool:
        """Count the access and probe the tags; on a hit, touch LRU
        (and dirty for writes)."""
        cell = self._access_cell
        if cell is None:
            cell = self._access_cell = self._access_counter.cell()
        cell[0] += 1.0
        self._clock += 1
        mask = self._set_mask
        index = page & mask if mask is not None else page % self.num_sets
        way = self._tag_index[index].get(page)
        if way is not None:
            way.last_touch = self._clock
            way.access_count += 1
            if is_write:
                way.dirty = True
            cell = self._hit_cell
            if cell is None:
                cell = self._hit_cell = self._hits.cell()
            cell[0] += 1.0
            return True
        self._misses.incr()
        return False

    def contains(self, page: int) -> bool:
        """Tag probe without LRU side effects."""
        return page in self._tag_index[self.set_index(page)]

    def is_reserved(self, page: int) -> bool:
        """True if a refill for ``page`` already holds a way."""
        return page in self._reserved_index[self.set_index(page)]

    # -- refill path ------------------------------------------------------------

    def reserve_victim(self, page: int) -> Optional[EvictedPage]:
        """Claim a way for an incoming refill of ``page``.

        Picks an invalid way if possible, otherwise evicts the LRU
        non-reserved way.  Returns the evicted page (None if a free way
        was available).  Raises :class:`ProtocolError` when every way in
        the set is already reserved — the backside controller must bound
        outstanding misses per set to avoid this.
        """
        set_index = self.set_index(page)
        reserved = self._reserved_index[set_index]
        if page in reserved:
            raise ProtocolError(f"page {page} already has a reserved way")
        ways = self._sets[set_index]
        # Prefer an invalid, unreserved way.
        for way in ways:
            if way.page is None and way.reserved_for is None:
                way.reserved_for = page
                reserved[page] = way
                return None
        # Evict the LRU valid, unreserved way.
        victim: Optional[Way] = None
        for way in ways:
            if way.page is not None and way.reserved_for is None:
                if victim is None or way.last_touch < victim.last_touch:
                    victim = way
        if victim is None:
            raise ProtocolError(
                f"all ways of set {set_index} are reserved; "
                "too many concurrent misses to one set"
            )
        evicted = EvictedPage(victim.page, victim.dirty,
                              victim.access_count)
        del self._tag_index[set_index][victim.page]
        victim.page = None
        victim.dirty = False
        victim.access_count = 0
        victim.reserved_for = page
        reserved[page] = victim
        self.stats.add("evictions")
        if evicted.dirty:
            self.stats.add("dirty_evictions")
        return evicted

    def install(self, page: int, dirty: bool = False) -> None:
        """Fill the reserved way with the arrived page."""
        self._clock += 1
        set_index = self.set_index(page)
        way = self._reserved_index[set_index].pop(page, None)
        if way is None:
            raise ProtocolError(f"install of page {page} without a reservation")
        way.page = page
        way.dirty = dirty
        way.last_touch = self._clock
        way.access_count = 1  # the access that missed replays
        way.reserved_for = None
        self._tag_index[set_index][page] = way
        self.stats.add("installs")

    def cancel_reservation(self, page: int) -> None:
        """Release a reservation without installing (error paths)."""
        set_index = self.set_index(page)
        way = self._reserved_index[set_index].pop(page, None)
        if way is None:
            raise ProtocolError(f"no reservation to cancel for page {page}")
        way.reserved_for = None

    # -- direct manipulation (warmup / tests) -----------------------------------

    def populate(self, page: int) -> Optional[EvictedPage]:
        """Insert a page immediately (used for cache warmup)."""
        # Single probe replacing the old contains() + lookup() pair;
        # the hit arm mirrors lookup()'s hit path exactly and the miss
        # arm has no probe side effects, matching the old behaviour.
        mask = self._set_mask
        index = page & mask if mask is not None else page % self.num_sets
        way = self._tag_index[index].get(page)
        if way is not None:
            self._clock += 1
            way.last_touch = self._clock
            way.access_count += 1
            self._hits.incr()
            return None
        evicted = self.reserve_victim(page)
        self.install(page)
        return evicted

    def warm_job(self, steps) -> int:
        """Warmup fast path: stream one job's steps through
        :meth:`populate` semantics (plus the write-touch
        ``lookup(page, is_write=True)`` per write step) without a
        method call per step.  Clock, LRU, dirty and counter effects
        are identical to the populate()/lookup() pair it replaces;
        returns the number of steps consumed.
        """
        num_sets = self.num_sets
        mask = self._set_mask
        tag_index = self._tag_index
        hits = 0
        done = 0
        for _compute_ns, page, is_write in steps:
            index = page & mask if mask is not None else page % num_sets
            way = tag_index[index].get(page)
            if way is None:
                self.reserve_victim(page)
                self.install(page)
                if is_write:
                    way = tag_index[index][page]
                    clock = self._clock + 1
                    self._clock = clock
                    way.last_touch = clock
                    way.access_count += 1
                    way.dirty = True
                    hits += 1
            else:
                clock = self._clock + 1
                self._clock = clock
                way.last_touch = clock
                way.access_count += 1
                hits += 1
                if is_write:
                    clock += 1
                    self._clock = clock
                    way.last_touch = clock
                    way.access_count += 1
                    way.dirty = True
                    hits += 1
            done += 1
        if hits:
            # One batched add: hit counts are integral, so summing the
            # increments first yields the same float value as adding
            # them one at a time.
            self._hits.add(hits)
        return done

    # -- warm-state snapshot (repro.snapshot) -----------------------------------

    def dump_state(self) -> Dict[str, object]:
        """Compact, picklable dump of the full tag state.

        Ways are flattened set-major into parallel int lists (TDRAM
        keeps tags alongside data in the row; this is the serialized
        analogue): page (-1 = invalid), dirty flag, LRU timestamp,
        access count, reserved_for (-1 = unreserved), plus the LRU
        clock and the stats counters.
        """
        pages: List[int] = []
        dirty: List[int] = []
        last_touch: List[int] = []
        access_count: List[int] = []
        reserved_for: List[int] = []
        for ways in self._sets:
            for way in ways:
                pages.append(-1 if way.page is None else way.page)
                dirty.append(1 if way.dirty else 0)
                last_touch.append(way.last_touch)
                access_count.append(way.access_count)
                reserved_for.append(-1 if way.reserved_for is None
                                    else way.reserved_for)
        return {
            "num_sets": self.num_sets,
            "associativity": self.associativity,
            "pages": pages,
            "dirty": dirty,
            "last_touch": last_touch,
            "access_count": access_count,
            "reserved_for": reserved_for,
            "clock": self._clock,
            "stats": self.stats.as_dict(),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`dump_state` dump bit-identically.

        Geometry must match the dump; the tag and reservation indexes
        are rebuilt from the restored ways so the coherence invariants
        hold by construction.
        """
        if (state["num_sets"] != self.num_sets
                or state["associativity"] != self.associativity):
            raise ConfigurationError(
                f"warm-state geometry mismatch: snapshot is "
                f"{state['num_sets']}x{state['associativity']}, cache is "
                f"{self.num_sets}x{self.associativity}"
            )
        pages = state["pages"]
        dirty = state["dirty"]
        last_touch = state["last_touch"]
        access_count = state["access_count"]
        reserved_for = state["reserved_for"]
        flat = 0
        for set_index, ways in enumerate(self._sets):
            tag_index = self._tag_index[set_index]
            reserved_index = self._reserved_index[set_index]
            tag_index.clear()
            reserved_index.clear()
            for way in ways:
                page = pages[flat]
                way.page = None if page == -1 else page
                way.dirty = bool(dirty[flat])
                way.last_touch = last_touch[flat]
                way.access_count = access_count[flat]
                reserved = reserved_for[flat]
                way.reserved_for = None if reserved == -1 else reserved
                if way.page is not None:
                    tag_index[way.page] = way
                if way.reserved_for is not None:
                    reserved_index[way.reserved_for] = way
                flat += 1
        self._clock = state["clock"]
        self.stats.restore(state["stats"])

    def occupancy(self) -> int:
        """Number of valid pages currently cached."""
        return sum(
            1 for ways in self._sets for way in ways if way.valid
        )

    def dirty_count(self) -> int:
        return sum(
            1 for ways in self._sets for way in ways if way.valid and way.dirty
        )

    def miss_ratio(self) -> float:
        total = self.stats["hits"] + self.stats["misses"]
        if total == 0:
            return 0.0
        return self.stats["misses"] / total
