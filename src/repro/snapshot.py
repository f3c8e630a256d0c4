"""Warm-state snapshot/restore: amortize dataset builds and cache
warmup across experiment sweeps (DESIGN.md §4e).

Every figure/table harness is a *sweep*, yet each run used to rebuild
its workload dataset and re-warm the DRAM cache / resident set from
scratch — even when sweep points differ only in a parameter that does
not affect warm state (arrival rate, switch cost, MSR depth).  This
module memoizes both:

* **Dataset builds** (:func:`build_workload`) — the constructed
  workload object (hash index, trees, page-heap layout) is serialized
  once per ``(name, dataset_pages, seed, kwargs)`` digest, in-process
  and on disk.  Restores unpickle a *fresh* object per caller, so no
  mutable state is ever shared between runs.
* **Post-warmup machine state** (:func:`capture_warm` /
  :func:`restore_warm`) — DRAM-cache tags/ways/dirty bits and
  reservation maps (or the OS resident set), plus the workload and
  runner RNG state at the warm/measure boundary.  Restoring is
  *bit-identical* to a fresh warm: the golden determinism test passes
  unchanged through both paths, enforced by
  :meth:`~repro.core.machine.Machine.state_fingerprint` equality.

Snapshot files are versioned: a header (format version + a digest of
the ``repro`` sources + the semantic key) is validated before the
payload is unpickled; any mismatch rejects and deletes the stale file
so it is rebuilt rather than silently loaded.  The in-process memo
holds the serialized bytes, which ``fork``-started worker processes
inherit for free (spawn-started workers fall back to the files).

Policy knobs (also exposed as CLI flags, see ``repro --help``):

* ``REPRO_SNAPSHOT=0``        — disable snapshots entirely;
* ``REPRO_SNAPSHOT_DIR=PATH`` — snapshot directory (default:
  ``$REPRO_CACHE_DIR/snapshots`` next to the result cache);
* ``REPRO_CACHE_MAX_BYTES=N`` — byte cap for the whole cache tree
  (results + snapshots), LRU-pruned on write.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.config.system import PagingMode, SystemConfig
from repro.core.machine import DEFAULT_WARM_STEPS
from repro.stats import CounterSet
from repro.workloads import make_workload

#: Bump on any change to the snapshot file layout or payload schema.
SNAPSHOT_VERSION = 1

#: Snapshot kinds (the filename prefix).
WORKLOAD_KIND = "workload"
WARM_KIND = "warm"
TRACE_KIND = "trace"

#: Default byte cap for the cache tree (results + snapshots): 256 MiB.
DEFAULT_CACHE_MAX_BYTES = 256 * 1024 * 1024

#: Suffixes the LRU pruner manages inside the cache tree.
_PRUNABLE_SUFFIXES = (".pkl", ".snap")

#: Process-global snapshot telemetry (``repro report`` footer).
STATS = CounterSet("snapshot")


def reset_stats() -> None:
    """Zero the process-global snapshot counters (tests, benchmarks)."""
    global STATS
    STATS = CounterSet("snapshot")


# ------------------------------------------------------------------ digests --

_SOURCE_DIGEST: Optional[str] = None


def source_digest() -> str:
    """Digest of every ``repro`` source file: any simulator change
    invalidates snapshots without manual version bumps."""
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _SOURCE_DIGEST = digest.hexdigest()[:16]
    return _SOURCE_DIGEST


def _digest(canonical: Tuple) -> str:
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:32]


def workload_key(name: str, dataset_pages: int, seed: int,
                 kwargs: Dict[str, Any]) -> str:
    """Digest of exactly the parameters that shape the built dataset."""
    return _digest(("workload", name, int(dataset_pages), int(seed),
                    tuple(sorted(kwargs.items()))))


def warm_key(config: SystemConfig, workload_name: str, seed: int,
             workload_kwargs: Dict[str, Any],
             dataset_pages: Optional[int] = None,
             warm_steps: int = DEFAULT_WARM_STEPS) -> Optional[str]:
    """Digest of only the *resolved* config fields and workload
    parameters that affect post-warmup machine state.

    Sweep points that differ in arrival rate, switch cost, MSR depth,
    scheduling policy, partitioning, ... hash identically and share one
    warm.  ``dataset_pages`` is the *workload's* dataset size (defaults
    to the config's); cache geometry enters through the resolved tier
    tuple, so e.g. astriflash / astriflash-ideal / flash-sync share a
    warm.  ``None`` when the configuration has no warm state
    (DRAM-only).
    """
    mode = config.mode
    if mode is PagingMode.DRAM_ONLY:
        return None
    if dataset_pages is None:
        dataset_pages = config.scale.dataset_pages
    if mode in (PagingMode.ASTRIFLASH, PagingMode.FLASH_SYNC):
        # Hardware DRAM cache: warm state depends on the cache geometry
        # the organization is built with.
        tier: Tuple = ("dramcache", config.scaled_dram_cache_pages,
                       config.dram_cache.associativity)
    else:
        # OS-Swap: fully-associative resident set of the same capacity.
        tier = ("resident", config.scaled_dram_cache_pages)
    return _digest(("warm-state", workload_name, int(dataset_pages),
                    int(seed), tuple(sorted(workload_kwargs.items())),
                    tier, int(warm_steps)))


def trace_key(workload_name: str, dataset_pages: int, seed: int,
              num_steps: int, kwargs: Dict[str, Any]) -> str:
    """Digest for a memoized flat page trace (fig1-style sweeps)."""
    return _digest(("trace", workload_name, int(dataset_pages), int(seed),
                    int(num_steps), tuple(sorted(kwargs.items()))))


def generic_key(*parts) -> str:
    """Digest of arbitrary repr-stable parts, for harness-specific
    snapshot kinds (e.g. fig1's warmed-LRU states)."""
    return _digest(parts)


# ------------------------------------------------------------- deep pickling --

# Workload datasets include deep linked structures (masstree/rbtree
# nodes); pickling them overflows the default recursion limit.  Retry
# such dumps/loads in a dedicated big-stack thread with a raised limit.
_DEEP_RECURSION_LIMIT = 500_000
_DEEP_STACK_BYTES = 256 << 20


def _with_deep_stack(func, *args):
    box: Dict[str, Any] = {}

    def work():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_DEEP_RECURSION_LIMIT)
        try:
            box["value"] = func(*args)
        except BaseException as exc:  # re-raised on the caller's thread
            box["error"] = exc
        finally:
            sys.setrecursionlimit(old)

    old_stack = threading.stack_size(_DEEP_STACK_BYTES)
    try:
        thread = threading.Thread(target=work, name="repro-snapshot-pickle")
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old_stack)
    if "error" in box:
        raise box["error"]
    return box["value"]


def _dumps(obj) -> bytes:
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except RecursionError:
        return _with_deep_stack(pickle.dumps, obj,
                                pickle.HIGHEST_PROTOCOL)


def _loads(blob: bytes):
    try:
        return pickle.loads(blob)
    except RecursionError:
        return _with_deep_stack(pickle.loads, blob)


# -------------------------------------------------------------- LRU pruning --


def cache_max_bytes() -> Optional[int]:
    """Byte cap for the cache tree; ``None`` disables pruning."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if raw is None:
        return DEFAULT_CACHE_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_CACHE_MAX_BYTES
    return value if value > 0 else None


def prune_cache(directory: Path, max_bytes: Optional[int] = None,
                keep: Iterable[Path] = ()) -> Tuple[int, int]:
    """LRU-prune cache/snapshot files under ``directory`` to the cap.

    Recency is file mtime — loads touch their entry on every hit, so
    mtime order is LRU order.  ``keep`` paths (typically the entry just
    written) are never pruned.  Returns ``(files_removed,
    bytes_removed)``.
    """
    if max_bytes is None:
        max_bytes = cache_max_bytes()
    if max_bytes is None or not directory.is_dir():
        return (0, 0)
    protected = {Path(p).resolve() for p in keep}
    entries: List[Tuple[float, int, Path]] = []
    total = 0
    for path in directory.rglob("*"):
        if path.suffix not in _PRUNABLE_SUFFIXES or not path.is_file():
            continue
        try:
            stat = path.stat()
        except OSError:
            continue
        total += stat.st_size
        if path.resolve() not in protected:
            entries.append((stat.st_mtime, stat.st_size, path))
    entries.sort()  # oldest first
    removed_files = removed_bytes = 0
    for mtime, size, path in entries:
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        removed_files += 1
        removed_bytes += size
    return (removed_files, removed_bytes)


def clear_cache(directory: Path) -> Tuple[int, int]:
    """Delete every cache/snapshot file under ``directory``."""
    if not directory.is_dir():
        return (0, 0)
    removed_files = removed_bytes = 0
    for path in directory.rglob("*"):
        if not path.is_file():
            continue
        if path.suffix not in _PRUNABLE_SUFFIXES and \
                path.name != "CACHE_VERSION":
            continue
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            continue
        removed_files += 1
        removed_bytes += size
    return (removed_files, removed_bytes)


# ------------------------------------------------------------ snapshot store --


def snapshots_enabled() -> bool:
    return os.environ.get("REPRO_SNAPSHOT", "1") != "0"


def default_snapshot_dir() -> Path:
    override = os.environ.get("REPRO_SNAPSHOT_DIR")
    if override:
        return Path(override)
    cache_root = Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))
    return cache_root / "snapshots"


class SnapshotStore:
    """Versioned snapshot files plus an in-process bytes memo.

    File layout: two concatenated pickles — a small header
    ``{"version", "stamp", "kind", "key"}`` followed by the payload.
    Loads validate the header before touching the payload, so stale
    files (format bump or simulator source change) are rejected and
    deleted, never silently loaded.  The memo keeps the serialized
    payload bytes; each load unpickles a fresh object graph, so no
    mutable state leaks between runs, and ``fork``-started workers
    inherit the memo without re-reading files.
    """

    #: Process-global memo: "kind:key" -> serialized payload bytes.
    _MEMO: Dict[str, bytes] = {}

    def __init__(self, directory: Optional[Path] = None,
                 enabled: Optional[bool] = None) -> None:
        self.enabled = snapshots_enabled() if enabled is None else enabled
        self.directory = Path(directory) if directory is not None \
            else default_snapshot_dir()

    # -- paths / headers ----------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        return self.directory / f"{kind}-{key}.snap"

    @staticmethod
    def _header(kind: str, key: str) -> Dict[str, Any]:
        return {"version": SNAPSHOT_VERSION, "stamp": source_digest(),
                "kind": kind, "key": key}

    def _header_valid(self, header, kind: str, key: str) -> bool:
        return (isinstance(header, dict)
                and header.get("version") == SNAPSHOT_VERSION
                and header.get("stamp") == source_digest()
                and header.get("kind") == kind
                and header.get("key") == key)

    # -- load / store -------------------------------------------------------

    def contains(self, kind: str, key: str) -> bool:
        """Cheap existence probe: memo hit, or a file whose *header*
        validates (the payload is not unpickled)."""
        if not self.enabled:
            return False
        if f"{kind}:{key}" in self._MEMO:
            return True
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                return self._header_valid(pickle.load(handle), kind, key)
        except Exception:
            return False

    def load(self, kind: str, key: str):
        """The snapshot payload as a fresh object graph, or ``None``.

        A file with a stale or foreign header is deleted and reported
        as a miss (counted under ``stale_rejected``)."""
        if not self.enabled:
            return None
        blob = self._MEMO.get(f"{kind}:{key}")
        if blob is not None:
            STATS.add(f"{kind}_memo_hits")
            return _loads(blob)
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                header = pickle.load(handle)
                if not self._header_valid(header, kind, key):
                    raise _StaleSnapshot()
                payload_blob = handle.read()
            payload = _loads(payload_blob)
        except OSError:
            return None
        except _StaleSnapshot:
            STATS.add("stale_rejected")
            self._discard(path)
            return None
        except Exception:
            # Corrupt entry (interrupted writer, unreadable pickle).
            STATS.add("stale_rejected")
            self._discard(path)
            return None
        self._MEMO[f"{kind}:{key}"] = payload_blob
        self._touch(path)
        STATS.add(f"{kind}_disk_hits")
        return payload

    def store(self, kind: str, key: str, payload) -> None:
        """Serialize ``payload`` into the memo and (atomically) a
        versioned file; LRU-prunes the cache tree afterwards."""
        if not self.enabled:
            return
        blob = _dumps(payload)
        self._MEMO[f"{kind}:{key}"] = blob
        path = self._path(kind, key)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(pickle.dumps(self._header(kind, key),
                                          protocol=pickle.HIGHEST_PROTOCOL))
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        STATS.add(f"{kind}_stored")
        prune_cache(self.directory, keep=(path,))

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    @classmethod
    def clear_memo(cls) -> None:
        cls._MEMO.clear()


class _StaleSnapshot(Exception):
    pass


def resolve_store(snapshots: Optional[bool] = None,
                  snapshot_dir=None) -> SnapshotStore:
    """Build a store from explicit arguments, falling back to the
    ``REPRO_SNAPSHOT`` / ``REPRO_SNAPSHOT_DIR`` environment policy."""
    directory = Path(snapshot_dir) if snapshot_dir is not None else None
    return SnapshotStore(directory=directory, enabled=snapshots)


# ------------------------------------------------------- dataset memoization --


def build_workload(name: str, dataset_pages: int, seed: int,
                   store: Optional[SnapshotStore] = None, **kwargs):
    """:func:`~repro.workloads.make_workload` with dataset memoization.

    The expensive part of construction (``HashIndex.bulk_load``,
    masstree/rbtree node builds, page-heap layout) is reused via the
    snapshot store; the returned object is always a private copy whose
    behaviour is bit-identical to a fresh construction (RNG state and
    job counter included — both are at their just-constructed values).
    """
    store = store if store is not None else resolve_store()
    if not store.enabled:
        return make_workload(name, dataset_pages, seed=seed, **kwargs)
    key = workload_key(name, dataset_pages, seed, kwargs)
    cached = store.load(WORKLOAD_KIND, key)
    if cached is not None:
        return cached
    workload = make_workload(name, dataset_pages, seed=seed, **kwargs)
    store.store(WORKLOAD_KIND, key, workload)
    STATS.add("workload_builds")
    return workload


# ------------------------------------------------- warm-state capture/restore --


def capture_warm(runner, key: str, store: SnapshotStore,
                 warm_steps: int = DEFAULT_WARM_STEPS) -> None:
    """Warm ``runner`` freshly (idempotent) and serialize the
    warm/measure-boundary state under ``key``.

    The payload carries everything the measurement phase reads that
    warmup wrote: the workload (dataset + advanced RNG + job counter),
    the runner RNG state, and the machine's warm state (DRAM-cache
    tags/ways/dirty bits and reservation maps, or the resident set).
    """
    runner.warm(warm_steps)
    STATS.add("warm_captures")
    if not store.enabled:
        return
    payload = {
        "workload": runner.workload,
        "rng_state": runner._rng.getstate(),
        "machine": runner.machine.dump_warm_state(),
    }
    store.store(WARM_KIND, key, payload)


def restore_warm(runner, payload: Dict[str, Any]) -> None:
    """Load a warm-state payload into a freshly-constructed runner,
    instead of calling ``machine.warm_caches()``.

    The restore contract is *bit-identical continuation*: after this
    call the runner's observable state (machine fingerprint, workload
    RNG, job counter, runner RNG) equals the state a fresh warm with
    the same inputs would have produced.
    """
    start = time.perf_counter()
    runner.workload = payload["workload"]
    runner._rng.setstate(payload["rng_state"])
    runner.machine.load_warm_state(payload["machine"])
    runner.mark_warm_restored(time.perf_counter() - start)
    STATS.add("warm_restores")


def summary() -> Dict[str, float]:
    """Current process-global snapshot counters (report footer)."""
    return STATS.as_dict()
