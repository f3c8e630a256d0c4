"""Masstree-style ordered index and its TailBench-like workload.

The paper ports Masstree from TailBench (Sec. V-A).  We implement the
core of what matters at page granularity: a high-fanout B+ tree whose
nodes live on 4 KiB pages (allocated from a :class:`SpreadHeap` so the
index exercises the scaled page range), with every lookup returning the
page path the traversal touched.  Masstree's trie-of-B+-trees layering
for long keys is collapsed to a single B+ tree over 64-bit keys — the
layering only changes constant factors for short keys, which is all the
workload uses; the full layered structure for byte-string keys is
available in :mod:`repro.workloads.masstree_layers`.

Values live in a packed row store covering the rest of the page budget,
so value pages (not index pages) dominate capacity, as in a real store.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Job, Step, Workload
from repro.workloads.pagedheap import PagedHeap, SpreadHeap
from repro.workloads.zipf import ZipfianGenerator

LEAF_CAPACITY = 32
INTERIOR_FANOUT = 16


class _LeafNode:
    __slots__ = ("page", "keys", "values", "next_leaf")

    def __init__(self, page: int) -> None:
        self.page = page
        self.keys: List[int] = []
        self.values: List[int] = []  # value page numbers
        self.next_leaf: Optional["_LeafNode"] = None


class _InteriorNode:
    __slots__ = ("page", "keys", "children")

    def __init__(self, page: int) -> None:
        self.page = page
        self.keys: List[int] = []
        self.children: List[object] = []


class Masstree:
    """A B+ tree with page-resident nodes and page-path lookups."""

    def __init__(self, index_heap: SpreadHeap,
                 leaf_capacity: int = LEAF_CAPACITY,
                 interior_fanout: int = INTERIOR_FANOUT) -> None:
        if leaf_capacity < 2 or interior_fanout < 3:
            raise WorkloadError("degenerate tree geometry")
        self._heap = index_heap
        self.leaf_capacity = leaf_capacity
        self.interior_fanout = interior_fanout
        self._root: object = _LeafNode(self._new_page())
        self._size = 0
        self._height = 1
        # Memo of get() results per key (see get); insert and delete
        # clear it, and pickles leave it out.
        self._paths: Dict[int, Tuple[Optional[int], List[int]]] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_paths"] = {}
        return state

    def _new_page(self) -> int:
        return self._heap.allocate().page

    @property
    def size(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    # -- search --------------------------------------------------------------

    def get(self, key: int) -> Tuple[Optional[int], List[int]]:
        """Value page for ``key`` (None if absent) plus the index page
        path the traversal touched, root first.

        The result is memoized per key until the next insert or
        delete: runs query a fixed tree with repeating (Zipfian) keys.
        The path list is shared between calls, so callers must not
        mutate it.
        """
        found = self._paths.get(key)
        if found is None:
            found = self._paths[key] = self._descend(key)
        return found

    def _descend(self, key: int) -> Tuple[Optional[int], List[int]]:
        path: List[int] = []
        node = self._root
        while isinstance(node, _InteriorNode):
            path.append(node.page)
            slot = bisect.bisect_right(node.keys, key)
            node = node.children[slot]
        path.append(node.page)
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return node.values[index], path
        return None, path

    # -- insert --------------------------------------------------------------

    def insert(self, key: int, value_page: int) -> List[int]:
        """Insert or update; returns the touched index page path."""
        self._paths.clear()
        path_nodes: List[_InteriorNode] = []
        node = self._root
        while isinstance(node, _InteriorNode):
            path_nodes.append(node)
            slot = bisect.bisect_right(node.keys, key)
            node = node.children[slot]
        leaf: _LeafNode = node
        touched = [n.page for n in path_nodes] + [leaf.page]

        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index] = value_page
            return touched
        leaf.keys.insert(index, key)
        leaf.values.insert(index, value_page)
        self._size += 1

        if len(leaf.keys) > self.leaf_capacity:
            self._split_leaf(leaf, path_nodes)
        return touched

    def _split_leaf(self, leaf: _LeafNode,
                    ancestors: List[_InteriorNode]) -> None:
        mid = len(leaf.keys) // 2
        sibling = _LeafNode(self._new_page())
        sibling.keys = leaf.keys[mid:]
        sibling.values = leaf.values[mid:]
        del leaf.keys[mid:]
        del leaf.values[mid:]
        sibling.next_leaf = leaf.next_leaf
        leaf.next_leaf = sibling
        self._insert_in_parent(leaf, sibling.keys[0], sibling, ancestors)

    def _insert_in_parent(self, left: object, split_key: int, right: object,
                          ancestors: List[_InteriorNode]) -> None:
        if not ancestors:
            root = _InteriorNode(self._new_page())
            root.keys = [split_key]
            root.children = [left, right]
            self._root = root
            self._height += 1
            return
        parent = ancestors[-1]
        slot = bisect.bisect_right(parent.keys, split_key)
        parent.keys.insert(slot, split_key)
        parent.children.insert(slot + 1, right)
        if len(parent.children) > self.interior_fanout:
            self._split_interior(parent, ancestors[:-1])

    def _split_interior(self, node: _InteriorNode,
                        ancestors: List[_InteriorNode]) -> None:
        mid = len(node.keys) // 2
        promote = node.keys[mid]
        sibling = _InteriorNode(self._new_page())
        sibling.keys = node.keys[mid + 1:]
        sibling.children = node.children[mid + 1:]
        del node.keys[mid:]
        del node.children[mid + 1:]
        self._insert_in_parent(node, promote, sibling, ancestors)


    # -- delete --------------------------------------------------------------

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns False if absent.

        Classic B+-tree deletion: underfull leaves borrow from a
        sibling or merge with it, and underflow propagates up the
        interior levels, shrinking the root when it empties.
        """
        self._paths.clear()
        ancestors: List[_InteriorNode] = []
        slots: List[int] = []
        node = self._root
        while isinstance(node, _InteriorNode):
            slot = bisect.bisect_right(node.keys, key)
            ancestors.append(node)
            slots.append(slot)
            node = node.children[slot]
        leaf: _LeafNode = node
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        del leaf.keys[index]
        del leaf.values[index]
        self._size -= 1
        self._fix_underflow(leaf, ancestors, slots)
        return True

    def _min_fill(self, node) -> int:
        if isinstance(node, _LeafNode):
            return self.leaf_capacity // 2
        return (self.interior_fanout + 1) // 2  # children

    def _fix_underflow(self, node, ancestors: List[_InteriorNode],
                       slots: List[int]) -> None:
        if not ancestors:
            # Root: collapse an interior root with a single child.
            if isinstance(node, _InteriorNode) and len(node.children) == 1:
                self._root = node.children[0]
                self._height -= 1
            return
        fill = (len(node.keys) if isinstance(node, _LeafNode)
                else len(node.children))
        if fill >= self._min_fill(node):
            return
        parent = ancestors[-1]
        slot = slots[-1]
        left = parent.children[slot - 1] if slot > 0 else None
        right = (parent.children[slot + 1]
                 if slot + 1 < len(parent.children) else None)

        if isinstance(node, _LeafNode):
            if left is not None and len(left.keys) > self._min_fill(left):
                node.keys.insert(0, left.keys.pop())
                node.values.insert(0, left.values.pop())
                parent.keys[slot - 1] = node.keys[0]
                return
            if right is not None and len(right.keys) > self._min_fill(right):
                node.keys.append(right.keys.pop(0))
                node.values.append(right.values.pop(0))
                parent.keys[slot] = right.keys[0]
                return
            # Merge with a sibling.
            if left is not None:
                left.keys += node.keys
                left.values += node.values
                left.next_leaf = node.next_leaf
                del parent.children[slot]
                del parent.keys[slot - 1]
            else:
                node.keys += right.keys
                node.values += right.values
                node.next_leaf = right.next_leaf
                del parent.children[slot + 1]
                del parent.keys[slot]
        else:
            if left is not None and len(left.children) > self._min_fill(left):
                node.children.insert(0, left.children.pop())
                node.keys.insert(0, parent.keys[slot - 1])
                parent.keys[slot - 1] = left.keys.pop()
                return
            if right is not None and \
                    len(right.children) > self._min_fill(right):
                node.children.append(right.children.pop(0))
                node.keys.append(parent.keys[slot])
                parent.keys[slot] = right.keys.pop(0)
                return
            if left is not None:
                left.keys.append(parent.keys[slot - 1])
                left.keys += node.keys
                left.children += node.children
                del parent.children[slot]
                del parent.keys[slot - 1]
            else:
                node.keys.append(parent.keys[slot])
                node.keys += right.keys
                node.children += right.children
                del parent.children[slot + 1]
                del parent.keys[slot]
        self._fix_underflow(parent, ancestors[:-1], slots[:-1])

    # -- scans ---------------------------------------------------------------

    def range_pages(self, start_key: int, count: int) -> List[int]:
        """Index+leaf pages touched by a short range scan."""
        _, path = self.get(start_key)
        pages = list(path)
        node = self._root
        while isinstance(node, _InteriorNode):
            slot = bisect.bisect_right(node.keys, start_key)
            node = node.children[slot]
        leaf: Optional[_LeafNode] = node
        remaining = count
        while leaf is not None and remaining > 0:
            if pages[-1] != leaf.page:
                pages.append(leaf.page)
            remaining -= len(leaf.keys)
            leaf = leaf.next_leaf
        return pages

    def check_invariants(self) -> None:
        """Validate key ordering and fanout bounds (test hook)."""
        def check(node, low, high):
            if isinstance(node, _LeafNode):
                assert node.keys == sorted(node.keys)
                for key in node.keys:
                    assert (low is None or key >= low)
                    assert (high is None or key < high)
                assert len(node.keys) <= self.leaf_capacity
                return
            assert len(node.children) == len(node.keys) + 1
            assert len(node.children) <= self.interior_fanout
            for i, child in enumerate(node.children):
                child_low = node.keys[i - 1] if i > 0 else low
                child_high = node.keys[i] if i < len(node.keys) else high
                check(child, child_low, child_high)

        check(self._root, None, None)


class MasstreeWorkload(Workload):
    """TailBench-style key-value service over the Masstree index."""

    name = "masstree"
    rob_occupancy = 56.0

    def __init__(self, dataset_pages: int, seed: int = 42,
                 num_keys: Optional[int] = None, zipf_s: float = 1.55,
                 ops_per_job: int = 10, compute_ns: float = 140.0,
                 write_fraction: float = 0.10,
                 scan_fraction: float = 0.05,
                 scan_length: int = 64) -> None:
        super().__init__(dataset_pages, seed)
        self.scan_fraction = scan_fraction
        self.scan_length = scan_length
        if num_keys is None:
            num_keys = min(1 << 16, max(1024, dataset_pages * 2))
        self.num_keys = num_keys
        self.ops_per_job = ops_per_job
        self.compute_ns = compute_ns
        self.write_fraction = write_fraction

        index_budget = max(16, dataset_pages // 8)
        value_budget = dataset_pages - index_budget
        expected_nodes = max(16, 2 * num_keys // LEAF_CAPACITY)
        self.tree = Masstree(SpreadHeap(0, index_budget, expected_nodes))
        value_heap = SpreadHeap(index_budget, value_budget, num_keys)
        build_rng = random.Random(seed)
        for key in range(num_keys):
            self.tree.insert(key, value_heap.allocate().page)
        self._zipf = ZipfianGenerator(num_keys, zipf_s, seed=seed + 1,
                                         permute=False)

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        # Compute jitter is drawn inline (see Workload.__init__).
        compute_ns = self.compute_ns
        scan_ns = compute_ns * 0.5
        rng_random = self._rng_random
        for _ in range(self.ops_per_job):
            key = self._zipf.sample()
            if rng_random() < self.scan_fraction:
                # Short range scan: after the root-to-leaf descent the
                # leaf chain is walked sequentially (Masstree range
                # queries); sequential leaf pages give spatial locality.
                for page in self.tree.range_pages(key, self.scan_length):
                    yield (scan_ns * (0.5 + rng_random()), page, False)
                continue
            is_write = rng_random() < self.write_fraction
            value_page, path = self.tree.get(key)
            if value_page is None:
                raise WorkloadError(f"key {key} missing from index")
            for page in path:
                yield (compute_ns * (0.5 + rng_random()), page, False)
            yield (compute_ns * (0.5 + rng_random()), value_page, is_write)
