"""Property tests for the memoized index paths.

``HashIndex.lookup`` and ``Masstree.get`` cache their ``(page, path)``
answer per key until the structure changes.  After any sequence of
inserts, updates and deletes, every answer from an index that has been
queried all along must equal a cold traversal of a copy built by the
same mutations and never queried before, and the memo must stay out of
pickles.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import HashIndex, LayeredMasstree, Masstree, SpreadHeap

KEYS = range(24)
RANGE_COUNT = 6


def build_masstree(ops):
    tree = Masstree(SpreadHeap(0, 4096, 512), leaf_capacity=4,
                    interior_fanout=3)
    for op in ops:
        apply_masstree(tree, op)
    return tree


def apply_masstree(tree, op):
    kind, key, value = op
    if kind == "delete":
        tree.delete(key)
    else:  # insert, or update when the key is present
        tree.insert(key, value)


def masstree_answers(tree):
    return ([tree.get(key) for key in KEYS],
            [tree.range_pages(key, RANGE_COUNT) for key in KEYS])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                          st.sampled_from(KEYS), st.integers(0, 999)),
                max_size=40))
def test_masstree_memo_matches_cold_traversal(ops):
    hot = build_masstree([])
    masstree_answers(hot)
    for done, op in enumerate(ops, start=1):
        apply_masstree(hot, op)
        cold = build_masstree(ops[:done])
        assert masstree_answers(hot) == masstree_answers(cold)
    assert pickle.dumps(hot) == pickle.dumps(build_masstree(ops))


def build_hash_index(ops):
    index = HashIndex(4, base_page=0, page_budget=64, expected_entries=64)
    present = set()
    for op in ops:
        apply_hash_index(index, present, op)
    return index


def apply_hash_index(index, present, op):
    kind, keys = op
    if kind == "bulk":
        # bulk_load takes distinct keys that are not yet present.
        fresh = sorted(set(keys) - present)
        index.bulk_load(fresh)
        present.update(fresh)
    else:  # insert, or a no-op update when the key is present
        for key in keys:
            index.insert(key)
            present.add(key)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "bulk"]),
                          st.lists(st.sampled_from(KEYS), max_size=4)),
                max_size=20))
def test_hash_index_memo_matches_cold_traversal(ops):
    hot = build_hash_index([])
    present = set()
    [hot.lookup(key) for key in KEYS]
    for done, op in enumerate(ops, start=1):
        apply_hash_index(hot, present, op)
        cold = build_hash_index(ops[:done])
        assert ([hot.lookup(key) for key in KEYS]
                == [cold.lookup(key) for key in KEYS])
    assert pickle.dumps(hot) == pickle.dumps(build_hash_index(ops))


LAYERED_KEYS = st.text(alphabet="ab", min_size=1, max_size=18).map(
    str.encode)


def build_layered(inserts):
    tree = LayeredMasstree(SpreadHeap(0, 4096, 512), leaf_capacity=4,
                           interior_fanout=3)
    for key, value in inserts:
        tree.insert(key, value)
    return tree


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(LAYERED_KEYS, st.integers(0, 999)), max_size=25),
       st.lists(LAYERED_KEYS, max_size=8))
def test_layered_masstree_memo_matches_cold_traversal(inserts, absent):
    probes = sorted({key for key, _ in inserts} | set(absent))
    hot = build_layered([])
    [hot.get(key) for key in probes]
    for done, (key, value) in enumerate(inserts, start=1):
        hot.insert(key, value)  # an update when the key is present
        cold = build_layered(inserts[:done])
        assert ([hot.get(key) for key in probes]
                == [cold.get(key) for key in probes])
    assert pickle.dumps(hot) == pickle.dumps(build_layered(inserts))
