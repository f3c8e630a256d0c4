"""Property tests for the memoized index paths and step templates.

``HashIndex.lookup`` and ``Masstree.get`` cache their ``(page, path)``
answer per key until the structure changes.  After any sequence of
inserts, updates and deletes, every answer from an index that has been
queried all along must equal a cold traversal of a copy built by the
same mutations and never queried before, and the memo must stay out of
pickles.  The workloads' step templates, memoized beside the paths,
follow the same rules.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import (
    HashIndex,
    LayeredMasstree,
    Masstree,
    MasstreeWorkload,
    SpreadHeap,
    TatpWorkload,
)

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


# -- step templates ----------------------------------------------------------
#
# TATP and Masstree memoize each operation's ``((page, is_write), ...)``
# template in their index's ``templates`` dict.  After any mutation of the index, a workload whose memo is warm
# must yield the same steps as a cold copy (a pickle round trip, which
# carries the RNG state but must leave the memo behind).

TEMPLATE_JOBS = 6
HOT_KEYS = st.integers(0, 3)  # Zipf s=1.55 puts ~2/3 of the draws here


def step_stream(workload, jobs=TEMPLATE_JOBS):
    """The steps of ``jobs`` jobs, ending at the first missing key."""
    steps = []
    for _ in range(jobs):
        try:
            steps.extend(workload.make_job().steps)
        except WorkloadError as error:
            steps.append(("missing", str(error)))
            break
    return steps


def assert_warm_matches_cold(workload, memo):
    step_stream(workload)  # warm the memo
    cold = pickle.loads(pickle.dumps(workload))
    assert memo(cold) == {}  # the memo stays out of pickles
    steps = step_stream(workload)
    assert steps == step_stream(cold)
    if steps[-1][0] != "missing":
        assert memo(workload)  # the warm copy did use its memo


def colliding_key(index, hot, nth):
    """A key absent from ``index`` that shares ``hot``'s bucket, so its
    insertion changes ``hot``'s chain walk (newest entries first)."""
    buckets = index.num_buckets
    return hot + (nth + 1 + 2 * index.size // buckets) * buckets


def mutate_hash_index(index, op, check):
    kind, hot, nth = op
    key = colliding_key(index, hot, nth)
    if kind == "insert":
        index.insert(key)
    else:  # bulk_load takes distinct, absent keys
        index.bulk_load([key, colliding_key(index, hot, nth + 1)])


def mutate_tree(tree, op, check):
    """Update a hot key's value page, split its leaf, or delete it (then
    check the stream, which must end at the missing key, and put the
    key back)."""
    kind, hot, nth = op
    if kind == "update":
        tree.insert(hot, 100_000 + nth)
    elif kind == "split":
        # Keys below the hot range land in the hot keys' leaf.
        for offset in range(1, 2 + nth):
            tree.insert(-(offset + 10 * nth), 200_000 + offset)
    else:
        value_page, _ = tree.get(hot)
        tree.delete(hot)
        check()
        tree.insert(hot, value_page)


def check_templates(workload, structure, mutate, ops):
    memo = lambda w: getattr(w, structure).templates  # noqa: E731
    check = lambda: assert_warm_matches_cold(workload, memo)  # noqa: E731
    check()
    for op in ops:
        mutate(getattr(workload, structure), op, check)
        check()


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "bulk"]), HOT_KEYS,
                          st.integers(0, 3)),
                min_size=1, max_size=6))
def test_tatp_templates_match_cold_copy(ops):
    check_templates(TatpWorkload(256, seed=5), "index",
                    mutate_hash_index, ops)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["update", "split", "delete"]),
                          HOT_KEYS, st.integers(0, 3)),
                min_size=1, max_size=6))
def test_masstree_templates_match_cold_copy(ops):
    check_templates(MasstreeWorkload(256, seed=5, scan_fraction=0.3),
                    "tree", mutate_tree, ops)
