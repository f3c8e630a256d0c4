"""Vectorized batch-execution backend (DESIGN.md §4h).

The scalar engine advances one heap pop at a time; most of those pops
are compute-quantum resumes whose timing is fully determined the moment
the job is dispatched.  This module batches that predictable work into
*epochs* between event horizons:

* whole jobs are **planned** up front — zipf pages, compute jitter and
  TLB draws are pulled as numpy blocks from the *same* RNG streams the
  scalar path consumes one call at a time (`BatchedRandom`,
  `ZipfianGenerator.sample_block`), so stream positions stay aligned;
* per-step latencies are materialized with numpy and the quantum
  boundaries recovered by a sequential scan that re-runs the scalar
  accumulation adds bit-for-bit (float addition is non-associative, so
  boundaries cannot come from a block cumsum);
* the DRAM-only single-core measurement loop is then **fused**: bursts
  retire without touching the event heap at all, and the engine clock /
  event tally are synchronized in batches via `Engine.advance_batch`;
* **open-loop and multi-core DRAM-only** shapes run a *merged event
  horizon* (`run_merged`): a heap-free (time, seq) mirror of the
  scalar schedule interleaving per-stream arrival events (gaps
  pre-drawn in blocks via the arrival processes' ``gap_block``
  protocol), per-core burst resumes, and the measurement boundary.
  Cores advance in lockstep bounded by the earliest cross-core event;
  steps are dealt from global per-stream cursors so shared-RNG draw
  order matches the scalar interleave exactly.

Everything else — tracing, finite arrival traces, Flash-Sync and the
multiplexed-burst modes — **falls back to the scalar path**, which
remains the golden reference.  The contract is bit-identity: same
`state_fingerprint`, same deterministic stats, same
`engine.events_executed`, enforced by tests/test_vector_backend.py and
the CI perf-smoke job.

Selection: ``REPRO_BACKEND=vector`` (env) or ``backend="vector"``
(Runner/CLI).  Default is ``scalar`` at the Runner level; the sweep
drivers (loadgen, chaos, figure harness) default to vector via
:func:`preferred_backend` — safe because :func:`classify` falls back
per run shape.
"""

from __future__ import annotations

import os
import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Recognized backend names.
BACKENDS = ("scalar", "vector")

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_BACKEND"


def resolve_backend(explicit: Optional[str] = None) -> str:
    """The backend to use: explicit argument, else $REPRO_BACKEND,
    else ``scalar``."""
    name = explicit if explicit else os.environ.get(ENV_VAR, "")
    name = (name or "scalar").strip().lower()
    if name not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise ConfigurationError(
            f"unknown backend {name!r}; known: {known}"
        )
    return name


def preferred_backend(explicit: Optional[str] = None) -> str:
    """The backend for harness-level sweep fan-out: explicit argument,
    else ``$REPRO_BACKEND``, else ``vector``.

    Unlike :func:`resolve_backend` (whose unset default is scalar —
    the Runner-level golden reference), the sweep drivers default to
    the vector backend: :func:`classify` vets every run shape and
    falls back per run, so vector-by-default only changes wall time,
    never results.  Setting ``REPRO_BACKEND=scalar`` still forces the
    scalar engine everywhere (the CI A/B lever).
    """
    if explicit:
        return resolve_backend(explicit)
    if os.environ.get(ENV_VAR, "").strip():
        return resolve_backend(None)
    return "vector"


# Run-shape telemetry for the vector backend, process-wide (mirrors
# runner._WALL_TOTALS).  Deliberately *not* part of SimulationResult
# counters: results must stay byte-identical across backends.
_STATS: Dict[str, int] = {}


def _reset_stats() -> None:
    _STATS.update({
        "fused_runs": 0,        # DRAM-only runs on the fused loop
        # Always 0: the Flash-Sync job-epoch loop is gone; the key stays
        # because perfbench/rep.py still reads it.
        "job_epoch_runs": 0,
        "open_loop_runs": 0,    # single-core open-loop merged runs
        "multi_core_runs": 0,   # multi-core merged runs (open or closed)
        "scalar_fallbacks": 0,  # vector requested but shape unsupported
        "epochs": 0,            # bursts retired without a heap pop
        "batched_jobs": 0,      # jobs planned as a block
        "batched_steps": 0,     # steps materialized through numpy
        "merged_arrivals": 0,   # arrival events on the merged horizon
    })


#: Per-reason fallback counts (reason string -> occurrences since the
#: last reset) — the surfaced form of scalar_fallbacks: ``repro
#: profile``/``bench-kernel`` JSON embed it and the CLI warns on
#: stderr when a requested vector run silently fell back.
_FALLBACK_REASONS: Dict[str, int] = {}

_reset_stats()
_LAST_FALLBACK_REASON = ""


def stats() -> Dict[str, int]:
    """Snapshot of the process-wide vector-backend telemetry."""
    return dict(_STATS)


def reset_stats() -> None:
    """Zero the telemetry (test isolation)."""
    _reset_stats()
    _FALLBACK_REASONS.clear()


def last_fallback_reason() -> str:
    return _LAST_FALLBACK_REASON


def fallback_reasons() -> Dict[str, int]:
    """Snapshot of per-reason scalar-fallback counts since reset."""
    return dict(_FALLBACK_REASONS)


# --------------------------------------------------------------- RNG bridge --


class BatchedRandom:
    """Block draws from a ``random.Random`` via numpy, stream-exactly.

    CPython's ``random.Random`` and ``numpy.random.RandomState`` share
    the Mersenne-Twister core *and* the 53-bit double construction
    (``genrand_res53``), so transplanting the 624-word key/position
    state lets numpy produce the next ``n`` doubles bit-identically to
    ``n`` calls of ``rng.random()``.

    The 625-word state transplant costs far more than a small draw, so
    draws are served from an internal buffer and the Python RNG is
    *not* touched per call: refills chain fresh numpy draws onto the
    unserved tail, and the owner calls :meth:`sync` once (end of run)
    to fast-forward the Python stream to exactly the consumed position
    (one fresh transplant plus a replay of the consumed count).
    Between construction and :meth:`sync`, drawing from the underlying
    ``random.Random`` directly would fork the stream — the vector run
    shapes guarantee no such consumer exists.
    """

    __slots__ = ("_rng", "_np", "_block", "_buffer", "_cursor",
                 "_drawn")

    def __init__(self, rng: random.Random, block: int = 8192) -> None:
        self._rng = rng
        self._np = np.random.RandomState()
        self._block = block
        self._buffer: Optional[np.ndarray] = None
        self._cursor = 0
        # Doubles drawn from the numpy stream since bridging; consumed
        # position = _drawn - unserved tail.
        self._drawn = 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` uniform doubles of the underlying stream."""
        buffer = self._buffer
        cursor = self._cursor
        if buffer is not None and cursor + n <= buffer.shape[0]:
            self._cursor = cursor + n
            return buffer[cursor:self._cursor]
        return self._refill_take(n)

    def _bridge_in(self) -> None:
        _version, internal, _gauss = self._rng.getstate()
        self._np.set_state(
            ("MT19937",
             np.asarray(internal[:-1], dtype=np.uint32),
             internal[-1])
        )

    def _refill_take(self, n: int) -> np.ndarray:
        npr = self._np
        if self._buffer is None:
            version = self._rng.getstate()[0]
            if version != 3:  # pragma: no cover - all supported CPythons
                return np.array([self._rng.random() for _ in range(n)])
            self._bridge_in()
            self._drawn = 0
            head = self._buffer  # None
        else:
            head = self._buffer[self._cursor:]
            if head.shape[0] == 0:
                head = None
        need = n if head is None else n - head.shape[0]
        size = self._block if need <= self._block else need
        fresh = npr.random_sample(size)
        self._drawn += size
        self._buffer = (fresh if head is None
                        else np.concatenate((head, fresh)))
        self._cursor = n
        return self._buffer[:n]

    def unserve(self, n: int) -> None:
        """Return the last ``n`` served doubles to the buffer.

        Owners that re-buffer a :meth:`take` (e.g. the arrival
        processes' ``_UniformBlock``) call this with their unconsumed
        tail before :meth:`sync` so the Python RNG lands on the
        *consumed* position rather than the served one.
        """
        if n:
            if n > self._cursor:
                raise ValueError(
                    f"cannot unserve {n} doubles; only {self._cursor} "
                    f"served from the current buffer"
                )
            self._cursor -= n

    def sync(self) -> None:
        """Fast-forward the Python RNG to the consumed position."""
        if self._buffer is None:
            return
        consumed = self._drawn - (self._buffer.shape[0] - self._cursor)
        npr = self._np
        version, _internal, gauss_next = self._rng.getstate()
        self._bridge_in()
        if consumed:
            npr.random_sample(consumed)
        _kind, keys, pos, _has_gauss, _cached = npr.get_state(legacy=True)
        self._rng.setstate(
            (version, tuple(keys.tolist()) + (int(pos),), gauss_next)
        )
        self._buffer = None
        self._cursor = 0
        self._drawn = 0


def uniform_block(rng: random.Random, n: int) -> np.ndarray:
    """One-shot block draw with immediate resync (tests, one-offs)."""
    batched = BatchedRandom(rng, block=n)
    block = batched.take(n)
    batched.sync()
    return block


# ------------------------------------------------------------ step planning --


def step_deltas(comp: List[float], tlb_draws: np.ndarray, tlb_p: float,
                walk_ns: float) -> Tuple[List[float], List[bool]]:
    """Per-step pre-access latency and TLB-miss flags.

    Replicates the scalar expression
    ``compute_ns + (0.0 if draw >= tlb_p else walk_ns)`` — one
    float64 add per step, walk charged on ``draw < tlb_p`` (the exact
    complement, ties included).  Small jobs take a plain-Python pass
    (IEEE adds are the same bits either way and the per-call numpy
    overhead dominates below a few hundred steps); large blocks go
    through one numpy pass.
    """
    if len(comp) < 256:
        d1: List[float] = []
        flags: List[bool] = []
        append_d1 = d1.append
        append_flag = flags.append
        for c, draw in zip(comp, tlb_draws.tolist()):
            if draw < tlb_p:
                append_flag(True)
                append_d1(c + walk_ns)
            else:
                append_flag(False)
                append_d1(c + 0.0)
        return d1, flags
    draws = np.asarray(tlb_draws)
    missed = draws < tlb_p
    d1_arr = np.asarray(comp, dtype=np.float64) + np.where(missed, walk_ns, 0.0)
    return d1_arr.tolist(), missed.tolist()


def scan_bursts(d1: List[float], miss_flags: List[bool], flat: float,
                quantum: float) -> Tuple[List[float], List[int], List[int]]:
    """Quantum-burst boundaries for one job, scalar-add-exact.

    Re-runs the inner-loop accumulation (``acc += d1; acc += flat``,
    two separate adds, reset to 0.0 at each crossing) so burst
    durations carry the identical float rounding the scalar path
    produces.  Returns parallel lists: burst duration, steps in the
    burst, TLB misses in the burst.  The trailing partial burst is
    included when non-empty; a job whose last step lands exactly on a
    quantum boundary has no trailing burst, matching the scalar
    ``if accumulated > 0.0`` flush guard.
    """
    durations: List[float] = []
    step_counts: List[int] = []
    tlb_counts: List[int] = []
    acc = 0.0
    steps = 0
    misses = 0
    for delta, missed in zip(d1, miss_flags):
        acc += delta
        acc += flat
        steps += 1
        if missed:
            misses += 1
        if acc >= quantum:
            durations.append(acc)
            step_counts.append(steps)
            tlb_counts.append(misses)
            acc = 0.0
            steps = 0
            misses = 0
    if steps:
        durations.append(acc)
        step_counts.append(steps)
        tlb_counts.append(misses)
    return durations, step_counts, tlb_counts


def scan_durations(d1: List[float], flat: float,
                   quantum: float) -> List[float]:
    """Burst durations only — the :func:`scan_bursts` fold without the
    per-burst step/miss bookkeeping (fast path for block-planned jobs;
    crossing jobs rescan with :func:`scan_bursts` for the counts).

    The trailing-burst guard is ``acc > 0.0`` rather than a step
    count: every step contributes a strictly positive delta (compute
    jitter > 0, flat DRAM latency > 0), so a zero accumulator means
    the last step landed exactly on a quantum boundary.
    """
    durations: List[float] = []
    append = durations.append
    acc = 0.0
    for delta in d1:
        acc += delta
        acc += flat
        if acc >= quantum:
            append(acc)
            acc = 0.0
    if acc > 0.0:
        append(acc)
    return durations


# ----------------------------------------------------------- run-shape gate --


def classify_shape(mode, num_cores: int, open_loop: bool = False,
                   tracing: bool = False, faulted: bool = False,
                   finite_trace: bool = False,
                   writes_enabled: bool = False
                   ) -> Tuple[Optional[str], str]:
    """Pure run-shape gate: which vector loop (if any) fits the shape.

    Returns ``(kind, reason)`` where kind is ``"fused"`` (single-core
    closed-loop DRAM-only, no event heap), ``"open-loop"`` /
    ``"multi-core"`` (DRAM-only merged event horizon) or ``None``
    with the fallback reason.  The gates mirror DESIGN.md §4h:
    per-event observation (tracing), a finite arrival trace that ends
    the stream mid-window, and every mode with a DRAM cache or pager
    (Flash-Sync blocks on each miss, the multiplexed modes switch per
    burst) keep the scalar path.

    Pure on purpose: the sweep drivers (loadgen/chaos) call it with
    config-derived facts to report deterministic per-cell backend
    expectations without running anything; :func:`classify` derives
    the same facts from a live runner.
    """
    from repro.config.system import PagingMode

    if tracing:
        return None, "tracing active (per-event observation)"
    if open_loop and finite_trace:
        return None, ("open-loop trace arrivals exhaust "
                      "(finite source ends the stream)")
    if mode is PagingMode.DRAM_ONLY:
        if num_cores != 1:
            return "multi-core", ""
        if open_loop:
            return "open-loop", ""
        return "fused", ""
    if mode is PagingMode.FLASH_SYNC:
        # No vector loop: the core blocks on each miss, so the event
        # engine does the work.  Faults, writes and multiple cores keep
        # their own reason strings, which the sweep summaries print.
        if faulted:
            return None, "fault plan active (per-read outcome draws)"
        if writes_enabled:
            return None, "writes"
        if num_cores != 1:
            return None, ("multi-core flash-sync (cores share the "
                          "DRAM cache and flash path)")
        return None, "single-core flash-sync (blocks on each miss)"
    return None, f"mode {mode.name} multiplexes threads per burst"


def classify(runner) -> Tuple[Optional[str], str]:
    """:func:`classify_shape` on a live runner's actual shape."""
    from repro.workloads.arrival import ClosedLoop, TraceArrivals

    arrivals = runner.arrivals
    open_loop = not isinstance(arrivals, ClosedLoop)
    finite_trace = (isinstance(arrivals, TraceArrivals)
                    and not arrivals.cycle)
    faulted = (runner.machine.flash is not None
               and runner.machine.flash.faults is not None)
    writes_enabled = (runner.machine.flash is not None
                      and runner.machine.flash.writes is not None)
    return classify_shape(
        runner.config.mode, runner.config.num_cores,
        open_loop=open_loop, tracing=runner._tracer is not None,
        faulted=faulted, finite_trace=finite_trace,
        writes_enabled=writes_enabled,
    )


def record_fallback(reason: str) -> None:
    global _LAST_FALLBACK_REASON
    _STATS["scalar_fallbacks"] += 1
    _FALLBACK_REASONS[reason] = _FALLBACK_REASONS.get(reason, 0) + 1
    _LAST_FALLBACK_REASON = reason


# ------------------------------------------------------- fused DRAM-only loop --


#: Steps planned per numpy pass on the fused path (amortizes the
#: per-call numpy overhead over several thousand steps).  The job
#: count per block adapts to the workload's steps-per-job so long
#: requests don't balloon a block past the measurement window.
PLAN_BLOCK_STEPS = 12288

#: Jobs in the first (probe) block, before steps-per-job is known.
PLAN_PROBE_JOBS = 16

#: Safety margin for the interior-job fast path.  ``sum(durations)``
#: is a left-fold like the exact per-burst adds but its rounding can
#: differ by a few ulp (~1e-9 ns at these magnitudes); a job is only
#: fast-pathed when even that estimate plus this margin stays inside
#: the window, so truncation decisions always take the exact path.
_FAST_PATH_GUARD_NS = 64.0


def run_fused(runner) -> None:
    """Measurement phase of a single-core DRAM-only run, heap-free.

    Replaces ``spawn(core_loop) + engine.run(until=end)`` for the shape
    :func:`classify` vetted.  Event accounting replicates the scalar
    run exactly: one spawn resume at t=0, one ``start_measurement``
    event at ``warmup_ns`` (which outranks any same-time burst resume
    by sequence number), and one event per retired burst; a burst whose
    resume time falls past the window end never executes — its steps
    were already generated (accesses/TLB counted) but its busy time is
    not charged, matching the scalar truncation semantics.

    Two-speed structure: jobs that provably retire strictly inside the
    measurement window take a batched path (counters updated per job;
    ``now``/busy time still advanced burst-by-burst, because those are
    sequential float folds).  Jobs that might cross ``warmup`` or the
    window end replay the scalar per-burst order exactly.  Workloads
    exposing ``plan_compute_block`` are planned ``PLAN_BLOCK_STEPS``
    steps at a time in one numpy pass; others are planned per job via
    :meth:`~repro.workloads.base.Workload.plan_steps`.
    """
    from repro.core.runner import TIME_QUANTUM_NS

    machine = runner.machine
    engine = machine.engine
    scale = runner.config.scale
    warmup = scale.warmup_ns
    end = warmup + scale.measurement_ns
    flat = machine.flat_dram_latency_ns
    tlb_p = runner._tlb_miss_probability
    walk_ns = runner._flat_walk_ns
    quantum = TIME_QUANTUM_NS
    workload = runner.workload
    plan = workload.plan_steps
    plan_block = getattr(workload, "plan_compute_block", None)
    runner._vector_tlb_rng = BatchedRandom(runner._rng)
    rng_take = runner._vector_tlb_rng.take
    # classify() vetted a closed-loop single-core run with no tracer:
    # _next_job always mints a fresh job (queues stay empty) and
    # _finish_job's live-set bookkeeping is unobservable (nothing
    # cancels or censors closed-loop jobs), so both are inlined here.
    # The bound tracker methods re-check the measurement flag / window
    # themselves, exactly as the runner methods would.
    make_job = workload.make_job
    finish_job = runner._finish_job
    service_record = runner.service_latency.record
    response_record = runner.response_latency.record
    record_completion = runner.throughput.record_completion
    completed_incr = runner._jobs_completed_count.incr
    advance = engine.advance_batch
    vstats = _STATS

    vstats["fused_runs"] += 1
    now = engine.now
    delta_events = 1  # the core's spawn resume pops at t=0
    measuring = False
    jobs_done = 0
    steps_done = 0
    epochs_done = 0
    # Shadow accumulators, written back at the measurement boundary
    # (the snapshot _start_measurement takes) and at end of run.  The
    # float adds happen in scalar order; only the attribute traffic is
    # batched.  TLB misses are integer counts, so one deferred
    # Counter.add at end of run equals the scalar per-miss increments.
    busy_ns = runner._busy_ns
    accesses = runner._accesses
    tlb_misses = 0
    # Per-job planned entries: (d1, miss_flags, tlb_total).  Burst
    # boundaries are scanned lazily at pop time so jobs planned past
    # the window end (a block always overshoots) cost no python scan;
    # per-burst step/miss counts are only materialized (scan_bursts)
    # for jobs that might cross a window boundary.
    planned: Deque[Tuple[memoryview, np.ndarray, int]] = deque()
    fast_end = end - _FAST_PATH_GUARD_NS
    block_jobs = PLAN_PROBE_JOBS

    while True:
        job = make_job()
        job.arrived_at = now
        job.started_at = now
        if plan_block is not None:
            if not planned:
                comp, steps_per_job = plan_block(block_jobs)
                block_jobs = max(PLAN_PROBE_JOBS,
                                 PLAN_BLOCK_STEPS // steps_per_job)
                missed = rng_take(comp.shape[0]) < tlb_p
                # memoryview: zero-copy slices whose elements read back
                # as plain Python floats (iteration matches a tolist'd
                # list bit-for-bit without paying the conversion).
                d1_block = memoryview(comp + np.where(missed, walk_ns,
                                                      0.0))
                tlb_totals = missed.reshape(-1, steps_per_job) \
                                   .sum(axis=1).tolist()
                for j, tlb_total in enumerate(tlb_totals):
                    a = j * steps_per_job
                    b = a + steps_per_job
                    # miss flags stay an ndarray view; only crossing
                    # jobs (scan_bursts rescan) pay the tolist.
                    planned.append((d1_block[a:b], missed[a:b],
                                    tlb_total))
            d1, miss_flags, tlb_total = planned.popleft()
            durations = scan_durations(d1, flat, quantum)
            num_steps = len(d1)
            step_counts = None
        else:
            comp, _pages, _writes = plan(job)
            num_steps = len(comp)
            d1, miss_flags = step_deltas(comp, rng_take(num_steps),
                                         tlb_p, walk_ns)
            durations, step_counts, tlb_counts = scan_bursts(
                d1, miss_flags, flat, quantum
            )
            tlb_total = sum(tlb_counts)
        jobs_done += 1
        steps_done += num_steps
        epochs_done += len(durations)

        if measuring and now + sum(durations) <= fast_end:
            # Interior job: every burst retires strictly inside the
            # window, so counters batch per job; now/busy stay
            # burst-sequential (float fold order is observable).  The
            # engine clock is stored directly; the event tally is
            # settled in one advance_batch at end of run (nothing
            # reads it mid-run on this vetted shape).
            accesses += num_steps
            tlb_misses += tlb_total
            for duration in durations:
                now += duration
                busy_ns += duration
            delta_events += len(durations)
            engine.now = now
            service_record(now - job.started_at)
            response_record(now - job.arrived_at)
            record_completion()
            completed_incr()
            continue

        # Boundary-exact path: warmup / window-end crossing candidates
        # replay the scalar per-burst order.
        if step_counts is None:
            durations, step_counts, tlb_counts = scan_bursts(
                d1, miss_flags.tolist(), flat, quantum
            )
        truncated = False
        for k in range(len(durations)):
            # Burst k's steps are generated (counters bumped) before
            # its resume is "scheduled" — scalar order.
            accesses += step_counts[k]
            tlb_misses += tlb_counts[k]
            duration = durations[k]
            resume_at = now + duration
            if not measuring and resume_at >= warmup:
                # start_measurement was scheduled before any burst
                # resume, so at equal times it fires first.
                advance(warmup, delta_events + 1)
                delta_events = 0
                runner._busy_ns = busy_ns
                runner._accesses = accesses
                runner._start_measurement()
                measuring = True
            if resume_at > end:
                truncated = True
                break
            now = resume_at
            delta_events += 1
            busy_ns += duration
        if truncated:
            # The in-flight job the window cut off: the only live-set
            # entry a closed-loop scalar run ends with (feeds the
            # unfinished/inflight/backlog result fields).
            runner._live_jobs[job.job_id] = job
            break
        engine.now = now
        finish_job(job)
    if not measuring:  # pragma: no cover - warmup shorter than any job
        advance(warmup, delta_events + 1)
        delta_events = 0
        runner._busy_ns = busy_ns
        runner._accesses = accesses
        runner._start_measurement()
    advance(end, delta_events)
    runner._busy_ns = busy_ns
    runner._accesses = accesses
    if tlb_misses:
        runner._tlb_miss_count.add(tlb_misses)
    vstats["batched_jobs"] += jobs_done
    vstats["batched_steps"] += steps_done
    vstats["epochs"] += epochs_done


def execution_summary(backend: str, shape_counts) -> Dict[str, object]:
    """Deterministic per-sweep backend accounting for bench schemas.

    ``shape_counts`` is an iterable of ``(mode, num_cores, open_loop,
    faulted, count)`` tuples describing the runs a sweep issued — or
    six-element tuples with ``writes_enabled`` inserted before the
    count (the writes sweep; older callers keep the 5-tuple).  Each
    shape is classified via :func:`classify_shape` (config-derived
    facts only — never run results, which may come from the cache), so
    the summary is byte-identical across invocations of the same
    sweep.  The ``fallback_reasons`` histogram is the sweep-level
    surface of the process-wide :func:`fallback_reasons` counters.
    """
    summary: Dict[str, object] = {
        "backend": backend,
        "vector_cells": 0,
        "scalar_cells": 0,
        "vector_kinds": {},
        "fallback_reasons": {},
    }
    kinds: Dict[str, int] = summary["vector_kinds"]
    reasons: Dict[str, int] = summary["fallback_reasons"]
    for shape in shape_counts:
        if len(shape) == 6:
            mode, num_cores, open_loop, faulted, writes_enabled, count = shape
        else:
            mode, num_cores, open_loop, faulted, count = shape
            writes_enabled = False
        if backend != "vector":
            summary["scalar_cells"] += count
            continue
        kind, reason = classify_shape(mode, num_cores,
                                      open_loop=open_loop,
                                      faulted=faulted,
                                      writes_enabled=writes_enabled)
        if kind is None:
            summary["scalar_cells"] += count
            reasons[reason] = reasons.get(reason, 0) + count
        else:
            summary["vector_cells"] += count
            kinds[kind] = kinds.get(kind, 0) + count
    return summary


# ---------------------------------------------------- merged event horizon --


#: Gaps pre-drawn per arrival-stream refill on the merged loop.
ARRIVAL_GAP_BLOCK = 64

#: Steps dealt (and TLB draws bridged) per refill on the merged loop.
MERGED_STEP_CHUNK = 4096


def run_merged(runner) -> None:
    """Measurement phase for the open-loop and multi-core DRAM-only
    shapes: a heap-free (time, seq) mirror of the scalar schedule.

    The scalar run's heap holds at most one pending resume per core,
    one pending arrival per stream, and the measurement boundary; the
    merged loop keeps exactly those slots and always processes the
    global (time, seq) minimum, so cores advance in lockstep bounded
    by the earliest cross-core event and every handler runs at the
    same simulated instant, in the same order, as its scalar twin.
    Sequence numbers mirror the scalar spawn order (arrival streams,
    then cores, then the measurement callback); a local counter
    continues where the spawn seeds left off.

    Draw-order exactness: shared RNG streams are consumed at the same
    event-processing points as the scalar run.  Arrival gaps come from
    the process's ``gap_block`` buffer (per-call ``next_gap_ns`` for
    custom processes); per-step TLB draws come from one bridged cursor
    consumed in step-pull order; workloads exposing
    ``plan_step_block`` (arrayswap) have their compute jitter dealt
    from a global per-step cursor in the same pull order, with zipf
    page draws skipped entirely — pages are unobserved in DRAM-only
    mode and RNG stream *positions* are outside the bit-identity
    contract.  Other workloads pull their real step generators lazily,
    which is the scalar draw order by construction.

    The runner's own ``_next_job``/``_finish_job`` run unchanged, so
    queue/live-set bookkeeping — and with it the open-loop censoring
    contract (same ``unfinished_jobs``, same
    ``response_p99_lower_bound_ns``) — is the scalar code, not a
    reimplementation.  A burst whose resume falls past the window end
    never executes: its steps were already generated (accesses/TLB
    counted, streams consumed) but its busy time is not charged and
    its job stays live, matching scalar truncation.
    """
    from repro.core.runner import TIME_QUANTUM_NS
    from repro.workloads.arrival import ClosedLoop

    machine = runner.machine
    engine = machine.engine
    scale = runner.config.scale
    warmup = scale.warmup_ns
    end = warmup + scale.measurement_ns
    flat = machine.flat_dram_latency_ns
    tlb_p = runner._tlb_miss_probability
    walk_ns = runner._flat_walk_ns
    quantum = TIME_QUANTUM_NS
    workload = runner.workload
    num_cores = runner.config.num_cores
    arrivals = runner.arrivals
    open_loop = not isinstance(arrivals, ClosedLoop)
    queues = runner._queues
    next_job = runner._next_job
    finish_job = runner._finish_job
    make_job = workload.make_job
    advance = engine.advance_batch
    vstats = _STATS

    vstats["multi_core_runs" if num_cores != 1 else "open_loop_runs"] += 1

    runner._vector_tlb_rng = BatchedRandom(runner._rng)
    tlb_take = runner._vector_tlb_rng.take

    plan_block = getattr(workload, "plan_step_block", None)
    dealt = plan_block is not None
    steps_per_job = workload.uniform_steps_per_job if dealt else 0
    # Dealt-path buffers: per-step (compute + walk) deltas and miss
    # flags, 1:1 aligned with the TLB cursor.  Generic path: raw TLB
    # draws only; compute comes from the job's own step generator.
    d1_buf: List[float] = []
    flag_buf: List[bool] = []
    buf_pos = 0
    draw_buf: List[float] = []
    draw_pos = 0

    gap_draw = getattr(arrivals, "gap_block", None)
    gap_buf: List[float] = []
    gap_pos = 0
    gaps_dead = False

    # Event slots.  Core: [time, seq, busy_to_charge, job_to_finish];
    # arrival: [time, seq, started] (started=False is the spawn resume
    # that draws the first gap without delivering a job).
    seq = 0
    arr_evt: List[Optional[list]] = []
    if open_loop:
        for _ in range(num_cores):
            arr_evt.append([0.0, seq, False])
            seq += 1
    core_evt: List[Optional[list]] = []
    for _ in range(num_cores):
        core_evt.append([0.0, seq, 0.0, None])
        seq += 1
    meas: Optional[list] = [warmup, seq]
    ctr = seq + 1

    core_job: List[Optional[object]] = [None] * num_cores
    core_left = [0] * num_cores      # dealt: steps left in current job
    core_pull = [None] * num_cores   # generic: the job's step iterator
    parked = [False] * num_cores

    delta_events = 0
    busy_ns = runner._busy_ns
    accesses = runner._accesses
    accesses_start = accesses
    tlb_misses = 0
    jobs_done = 0
    bursts_done = 0
    arrivals_done = 0

    while True:
        # Global (time, seq) minimum over the pending slots.
        btime = None
        bseq = 0
        bkind = 0   # 1 = core, 2 = arrival, 3 = measurement
        bidx = 0
        for i in range(num_cores):
            e = core_evt[i]
            if e is not None and (btime is None or e[0] < btime
                                  or (e[0] == btime and e[1] < bseq)):
                btime, bseq, bkind, bidx = e[0], e[1], 1, i
        for s in range(len(arr_evt)):
            e = arr_evt[s]
            if e is not None and (btime is None or e[0] < btime
                                  or (e[0] == btime and e[1] < bseq)):
                btime, bseq, bkind, bidx = e[0], e[1], 2, s
        if meas is not None and (btime is None or meas[0] < btime
                                 or (meas[0] == btime and meas[1] < bseq)):
            btime, bseq, bkind = meas[0], meas[1], 3
        if btime is None or btime > end:
            break

        if bkind == 3:
            # advance() credits this event itself (+1) and lands the
            # shadow counters so the start_measurement snapshots see
            # exactly the scalar state.
            advance(warmup, delta_events + 1)
            delta_events = 0
            runner._busy_ns = busy_ns
            runner._accesses = accesses
            runner._start_measurement()
            meas = None
            continue

        delta_events += 1
        t = btime
        engine.now = t

        if bkind == 2:
            e = arr_evt[bidx]
            if e[2]:
                job = make_job()
                job.arrived_at = t
                queues[bidx].append(job)
                arrivals_done += 1
                if parked[bidx]:
                    # _wake: the core's resume outranks (by seq) the
                    # next arrival scheduled just below — scalar order.
                    parked[bidx] = False
                    core_evt[bidx] = [t, ctr, 0.0, None]
                    ctr += 1
            else:
                e[2] = True
            if gaps_dead:
                gap = None
            elif gap_draw is not None:
                if gap_pos >= len(gap_buf):
                    gap_buf = gap_draw(ARRIVAL_GAP_BLOCK)
                    gap_pos = 0
                if gap_pos < len(gap_buf):
                    gap = gap_buf[gap_pos]
                    gap_pos += 1
                else:
                    gap = None
                    gaps_dead = True  # finite source ran dry
            else:
                gap = arrivals.next_gap_ns()
            if gap is None:
                arr_evt[bidx] = None  # this stream's process returns
            else:
                e[0] = t + gap
                e[1] = ctr
                ctr += 1
            continue

        # Core event: charge the pending burst, finish its job if the
        # burst was the trailing flush, then continue the dispatch /
        # step loop until the core parks or schedules its next resume.
        e = core_evt[bidx]
        core_evt[bidx] = None
        busy_ns += e[2]
        fin = e[3]
        if fin is not None:
            finish_job(fin)
        while True:
            job = core_job[bidx]
            if job is None:
                job = next_job(bidx)
                if job is None:
                    parked[bidx] = True
                    break
                job.started_at = t
                core_job[bidx] = job
                jobs_done += 1
                if dealt:
                    core_left[bidx] = steps_per_job
                else:
                    core_pull[bidx] = job.steps
            acc = 0.0
            done = False
            if dealt:
                left = core_left[bidx]
                while left:
                    if buf_pos >= len(d1_buf):
                        comp = plan_block(MERGED_STEP_CHUNK)
                        missed = tlb_take(MERGED_STEP_CHUNK) < tlb_p
                        d1_buf = (comp + np.where(missed, walk_ns,
                                                  0.0)).tolist()
                        flag_buf = missed.tolist()
                        buf_pos = 0
                    acc += d1_buf[buf_pos]
                    acc += flat
                    if flag_buf[buf_pos]:
                        tlb_misses += 1
                    buf_pos += 1
                    accesses += 1
                    left -= 1
                    if acc >= quantum:
                        break
                core_left[bidx] = left
                done = not left
            else:
                pull = core_pull[bidx]
                while True:
                    step = next(pull, None)
                    if step is None:
                        done = True
                        break
                    compute_ns, _page, _is_write = step
                    if draw_pos >= len(draw_buf):
                        draw_buf = tlb_take(MERGED_STEP_CHUNK).tolist()
                        draw_pos = 0
                    draw = draw_buf[draw_pos]
                    draw_pos += 1
                    if draw < tlb_p:
                        tlb_misses += 1
                        acc += compute_ns + walk_ns
                    else:
                        acc += compute_ns + 0.0
                    acc += flat
                    accesses += 1
                    if acc >= quantum:
                        break
            if acc >= quantum:
                # Quantum crossing: schedule the resume.  If the job
                # also ran out of steps, the resume discovers that with
                # a zero accumulator and finishes then — scalar order.
                core_evt[bidx] = [t + acc, ctr, acc, None]
                ctr += 1
                bursts_done += 1
                break
            if done:
                if acc > 0.0:
                    # Trailing flush: busy charged and the job finished
                    # at the resume (the scalar `yield accumulated`
                    # before _finish_job).
                    core_evt[bidx] = [t + acc, ctr, acc, job]
                    ctr += 1
                    bursts_done += 1
                    core_job[bidx] = None
                    break
                finish_job(job)
                core_job[bidx] = None
                # Dispatch the next job at the same instant (the
                # scalar loop's fall-through to _next_job).

    if meas is not None:  # pragma: no cover - defensive; warmup <= end
        advance(warmup, delta_events + 1)
        delta_events = 0
        runner._busy_ns = busy_ns
        runner._accesses = accesses
        runner._start_measurement()
    advance(end, delta_events)
    runner._busy_ns = busy_ns
    runner._accesses = accesses
    if tlb_misses:
        runner._tlb_miss_count.add(tlb_misses)
    vstats["batched_jobs"] += jobs_done
    vstats["batched_steps"] += accesses - accesses_start
    vstats["epochs"] += bursts_done
    vstats["merged_arrivals"] += arrivals_done
