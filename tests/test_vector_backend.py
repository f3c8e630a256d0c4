"""Tests for the vectorized batch-execution backend (DESIGN.md §4h).

The backend's contract is *bit-identity*: on every evaluated preset x
workload pair, a ``backend="vector"`` run must produce the same
:meth:`Machine.state_fingerprint` and the same deterministic
:class:`SimulationResult` fields as the scalar golden reference —
whether the vector engine actually engages (DRAM-only fused and
merged loops) or silently falls back (Flash-Sync, multiplexed modes,
tracing, fault plans).  The sweep below pins that property; the unit
tests cover the batched primitives the loops are built from (RNG
bridge, zipf blocks, engine batch advance) and the kernel bench that
reports the speedup.
"""

import json
import os
import random

import numpy as np
import pytest

from repro import perf
from repro.cli import main
from repro.config import EVALUATED_CONFIG_NAMES
from repro.core import Runner
from repro.errors import ConfigurationError
from repro.harness.common import HarnessScale, build_config
from repro.sim import vector
from repro.sim.engine import Engine
from repro.sim.vector import BatchedRandom, uniform_block
from repro.units import US
from repro.workloads import EVALUATED_WORKLOADS, PoissonArrivals, \
    make_workload
from repro.workloads.arrival import DiurnalArrivals, MMPPArrivals, \
    TraceArrivals
from repro.workloads.zipf import ZipfianGenerator

SEED = 17

# Small enough that one run takes a fraction of a second, large enough
# that every run crosses warmup, retires jobs, and truncates one.
TINY = HarnessScale(
    name="vec-tiny", dataset_pages=2048, num_cores=1, warmup_us=100.0,
    measurement_us=500.0, zipf_s=1.8, workloads=EVALUATED_WORKLOADS,
)


def run_once(config_name, workload_name, backend, cores=1,
             arrivals=None, scale=TINY, seed=SEED, faults=False,
             workload_kwargs=None):
    config = build_config(config_name, scale)
    config.num_cores = cores
    if faults:
        config.faults.enabled = True
        config.faults.rber = 1e-4
    workload = make_workload(workload_name, scale.dataset_pages,
                             seed=seed, zipf_s=scale.zipf_s,
                             **(workload_kwargs or {}))
    runner = Runner(config, workload, arrivals=arrivals, backend=backend)
    result = runner.run()
    return runner, result


def identity_surface(runner, result):
    return (runner.machine.state_fingerprint(),
            perf.canonical_result_dict(result))


# ------------------------------------------------------- identity sweep --


@pytest.mark.parametrize("config_name", EVALUATED_CONFIG_NAMES)
@pytest.mark.parametrize("workload_name", EVALUATED_WORKLOADS)
def test_vector_bit_identical_to_scalar(config_name, workload_name):
    """Every preset x workload: same fingerprint, same deterministic
    result fields, single-core (the vector-engaged shapes)."""
    scalar = identity_surface(*run_once(config_name, workload_name,
                                        "scalar"))
    vec = identity_surface(*run_once(config_name, workload_name,
                                     "vector"))
    assert vec == scalar


@pytest.mark.parametrize("workload_name", EVALUATED_WORKLOADS)
def test_vector_multicore_engages_bit_identical(workload_name):
    """Multi-core DRAM-only runs the merged loop (no fallback) and
    stays bit-identical — arrayswap takes the dealt step stream, the
    DB workloads the generic per-pull path."""
    scalar = identity_surface(*run_once("dram-only", workload_name,
                                        "scalar", cores=2))
    vector.reset_stats()
    vec = identity_surface(*run_once("dram-only", workload_name,
                                     "vector", cores=2))
    assert vec == scalar
    stats = vector.stats()
    assert stats["multi_core_runs"] == 1
    assert stats["scalar_fallbacks"] == 0


@pytest.mark.parametrize("cores,open_loop,reason", [
    (2, False, "multi-core flash-sync"),
    (1, False, "single-core flash-sync"),
    (1, True, "single-core flash-sync"),
], ids=["2core-closed", "1core-closed", "1core-open"])
def test_flash_sync_falls_back_bit_identical(cores, open_loop, reason):
    """Flash-Sync has no vector loop (the core blocks on each miss):
    every shape stays on the scalar engine with a recorded reason."""

    def arrivals():
        return PoissonArrivals(60.0 * US, seed=SEED + 1) if open_loop \
            else None

    scalar = identity_surface(*run_once("flash-sync", "arrayswap",
                                        "scalar", cores=cores,
                                        arrivals=arrivals()))
    vector.reset_stats()
    vec = identity_surface(*run_once("flash-sync", "arrayswap",
                                     "vector", cores=cores,
                                     arrivals=arrivals()))
    assert vec == scalar
    assert vector.stats()["scalar_fallbacks"] == 1
    assert reason in vector.last_fallback_reason()


def test_fused_loop_engages_on_dram_only():
    vector.reset_stats()
    run_once("dram-only", "arrayswap", "vector")
    stats = vector.stats()
    assert stats["fused_runs"] == 1
    assert stats["scalar_fallbacks"] == 0
    assert stats["batched_jobs"] > 0
    assert stats["batched_steps"] > 0


def test_truncated_final_job_matches_scalar_live_set():
    """The window cuts off one in-flight job; the vector path must
    leave exactly the job the scalar path leaves (it feeds the
    unfinished/inflight/backlog result fields)."""
    rs, res_s = run_once("dram-only", "arrayswap", "scalar")
    rv, res_v = run_once("dram-only", "arrayswap", "vector")
    assert res_s.unfinished_jobs == 1
    assert sorted(rs._live_jobs) == sorted(rv._live_jobs)
    assert res_v.unfinished_jobs == res_s.unfinished_jobs


# ------------------------------------------------------ fallback gates --


@pytest.mark.parametrize("workload_name", EVALUATED_WORKLOADS)
def test_open_loop_engages_bit_identical(workload_name):
    """Open-loop Poisson on DRAM-only runs the merged loop — same
    fingerprint and stats, including the censoring fields."""

    def arrivals():
        return PoissonArrivals(40.0 * US, seed=SEED + 1)

    rs, res_s = run_once("dram-only", workload_name, "scalar",
                         arrivals=arrivals())
    vector.reset_stats()
    rv, res_v = run_once("dram-only", workload_name, "vector",
                         arrivals=arrivals())
    assert identity_surface(rv, res_v) == identity_surface(rs, res_s)
    assert res_v.unfinished_jobs == res_s.unfinished_jobs
    assert res_v.response_p99_lower_bound_ns == \
        res_s.response_p99_lower_bound_ns
    stats = vector.stats()
    assert stats["open_loop_runs"] == 1
    assert stats["scalar_fallbacks"] == 0
    assert stats["merged_arrivals"] > 0


@pytest.mark.parametrize("make_arrivals", [
    lambda: MMPPArrivals(30.0 * US, 8.0 * US, mean_dwell_ns=60.0 * US,
                         burst_dwell_ns=25.0 * US, seed=SEED + 2),
    lambda: DiurnalArrivals(35.0 * US, 300.0 * US, seed=SEED + 3),
    lambda: TraceArrivals([12.0 * US] * 8, cycle=True),
], ids=["mmpp", "diurnal", "trace-cycle"])
@pytest.mark.parametrize("cores", [1, 2], ids=["1core", "2core"])
def test_open_loop_arrival_modes_engage_bit_identical(make_arrivals,
                                                      cores):
    """Every batchable arrival process, single- and multi-core, runs
    the merged loop bit-identically (gap_block draw replay)."""
    scalar = identity_surface(*run_once("dram-only", "arrayswap",
                                        "scalar", cores=cores,
                                        arrivals=make_arrivals()))
    vector.reset_stats()
    vec = identity_surface(*run_once("dram-only", "arrayswap",
                                     "vector", cores=cores,
                                     arrivals=make_arrivals()))
    assert vec == scalar
    stats = vector.stats()
    assert stats["scalar_fallbacks"] == 0
    assert stats["open_loop_runs" if cores == 1 else
                 "multi_core_runs"] == 1


def test_trace_exhaustion_falls_back_bit_identical():
    """A trace that runs dry mid-window ends the arrival stream inside
    what would be an epoch; classify routes it to the scalar path."""
    from repro.workloads.arrival import TraceArrivals

    vector.reset_stats()

    def arrivals():
        # Exhausts partway through the measurement window.
        return TraceArrivals([25.0 * US] * 12)

    scalar = identity_surface(*run_once("dram-only", "arrayswap",
                                        "scalar", arrivals=arrivals()))
    vec = identity_surface(*run_once("dram-only", "arrayswap",
                                     "vector", arrivals=arrivals()))
    assert vec == scalar
    assert vector.stats()["scalar_fallbacks"] == 1
    assert "open-loop" in vector.last_fallback_reason()


def test_fault_plan_falls_back_bit_identical():
    vector.reset_stats()
    scalar = identity_surface(*run_once("flash-sync", "arrayswap",
                                        "scalar", faults=True))
    vec = identity_surface(*run_once("flash-sync", "arrayswap",
                                     "vector", faults=True))
    assert vec == scalar
    assert vector.stats()["scalar_fallbacks"] == 1
    assert "fault plan" in vector.last_fallback_reason()


def test_tracer_falls_back():
    from repro.obs import tracer as tracer_mod

    vector.reset_stats()
    tracer = tracer_mod.Tracer()
    tracer_mod.enable(tracer)
    try:
        run_once("dram-only", "arrayswap", "vector")
    finally:
        tracer_mod.disable()
    assert vector.stats()["scalar_fallbacks"] == 1
    assert "tracing" in vector.last_fallback_reason()


def test_multiplexed_modes_fall_back():
    vector.reset_stats()
    run_once("astriflash", "arrayswap", "vector")
    assert vector.stats()["scalar_fallbacks"] == 1
    assert "multiplexes" in vector.last_fallback_reason()


# --------------------------------------------------- gap_block protocol --


@pytest.mark.parametrize("make_arrivals", [
    lambda: PoissonArrivals(40.0 * US, seed=11),
    lambda: MMPPArrivals(30.0 * US, 8.0 * US, mean_dwell_ns=60.0 * US,
                         burst_dwell_ns=25.0 * US, seed=12, streams=2),
    lambda: DiurnalArrivals(35.0 * US, 300.0 * US, seed=13, streams=2),
    lambda: TraceArrivals([5.0 * US, 7.0 * US, 11.0 * US], cycle=True),
], ids=["poisson", "mmpp", "diurnal", "trace-cycle"])
def test_gap_block_matches_sequential_gaps(make_arrivals):
    """gap_block(n) returns exactly the next n next_gap_ns values, in
    mixed block sizes and interleaved with scalar calls."""
    scalar = make_arrivals()
    blocked = make_arrivals()
    expected, produced = [], []
    for size in (1, 7, 64, 3):
        expected.extend(scalar.next_gap_ns() for _ in range(size))
        produced.extend(blocked.gap_block(size))
    expected.extend(scalar.next_gap_ns() for _ in range(5))
    if hasattr(blocked, "gap_sync"):
        blocked.gap_sync()
    produced.extend(blocked.next_gap_ns() for _ in range(5))
    assert produced == expected


def test_trace_gap_block_exhausts_short():
    """A finite trace returns a short (then empty) block and marks
    itself exhausted, mirroring next_gap_ns returning None."""
    trace = TraceArrivals([1.0, 2.0, 3.0])
    assert trace.gap_block(2) == [1.0, 2.0]
    assert not trace.exhausted
    assert trace.gap_block(4) == [3.0]
    assert trace.exhausted
    assert trace.gap_block(4) == []
    assert trace.next_gap_ns() is None


def test_mmpp_gap_block_preserves_state_machine():
    """Blocked draws replay the dwell/transition bookkeeping exactly
    (state, transitions) alongside the gap values."""
    scalar = MMPPArrivals(20.0 * US, 4.0 * US, mean_dwell_ns=30.0 * US,
                          burst_dwell_ns=10.0 * US, seed=21)
    blocked = MMPPArrivals(20.0 * US, 4.0 * US, mean_dwell_ns=30.0 * US,
                           burst_dwell_ns=10.0 * US, seed=21)
    gaps = [scalar.next_gap_ns() for _ in range(200)]
    assert blocked.gap_block(200) == gaps
    assert blocked.state == scalar.state
    assert blocked.transitions == scalar.transitions


# ------------------------------------------------------ backend choice --


class TestResolveBackend:
    def test_default_is_scalar(self, monkeypatch):
        monkeypatch.delenv(vector.ENV_VAR, raising=False)
        assert vector.resolve_backend() == "scalar"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(vector.ENV_VAR, "vector")
        assert vector.resolve_backend() == "vector"

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(vector.ENV_VAR, "vector")
        assert vector.resolve_backend("scalar") == "scalar"

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            vector.resolve_backend("simd")

    def test_env_run_is_bit_identical(self, monkeypatch):
        monkeypatch.delenv(vector.ENV_VAR, raising=False)
        scalar = identity_surface(*run_once("dram-only", "tatp",
                                            "scalar"))
        monkeypatch.setenv(vector.ENV_VAR, "vector")
        vec = identity_surface(*run_once("dram-only", "tatp", None))
        assert vec == scalar


# -------------------------------------------------- batched primitives --


class TestBatchedRandom:
    def test_matches_python_stream(self):
        reference = random.Random(123)
        expected = [reference.random() for _ in range(1000)]
        bridged = BatchedRandom(random.Random(123), block=64)
        produced = []
        for size in (1, 7, 64, 128, 300, 500):
            produced.extend(bridged.take(size).tolist())
        assert produced == expected[:len(produced)]

    def test_sync_lands_python_rng_on_consumed_position(self):
        rng = random.Random(9)
        bridged = BatchedRandom(rng, block=32)
        served = bridged.take(50)
        bridged.sync()
        reference = random.Random(9)
        for value in served.tolist():
            assert reference.random() == value
        # After sync the two streams continue in lockstep.
        assert rng.random() == reference.random()

    def test_take_larger_than_block(self):
        reference = random.Random(5)
        expected = [reference.random() for _ in range(500)]
        bridged = BatchedRandom(random.Random(5), block=16)
        assert bridged.take(500).tolist() == expected

    def test_uniform_block_advances_python_stream(self):
        rng = random.Random(77)
        block = uniform_block(rng, 10)
        reference = random.Random(77)
        assert block.tolist() == [reference.random() for _ in range(10)]
        assert rng.random() == reference.random()


def test_zipf_sample_block_matches_scalar_stream():
    scalar = ZipfianGenerator(4096, 1.6, seed=3)
    expected = [scalar.sample() for _ in range(400)]
    batched = ZipfianGenerator(4096, 1.6, seed=3)
    produced = list(batched.sample_block(150))
    produced += [batched.sample() for _ in range(50)]  # interleave
    produced += list(batched.sample_block(200))
    assert produced == expected
    assert all(isinstance(page, int) and not isinstance(page, np.integer)
               for page in produced)


class TestAdvanceBatch:
    def test_advances_clock_and_event_tally(self):
        engine = Engine()
        before = engine.events_executed
        engine.advance_batch(125.0, 40)
        assert engine.now == 125.0
        assert engine.events_executed - before == 40

    def test_rejects_backward_time(self):
        engine = Engine()
        engine.advance_batch(50.0, 1)
        with pytest.raises(Exception):
            engine.advance_batch(25.0, 1)

    def test_rejects_negative_events(self):
        engine = Engine()
        with pytest.raises(Exception):
            engine.advance_batch(10.0, -1)


# ------------------------------------------------------- kernel bench --


class TestKernelBench:
    def test_bench_kernel_compares_backends(self):
        bench = perf.bench_kernel(scale=TINY, repeat=1,
                                  shapes=("fused",))
        assert [entry.backend for entry in bench.entries] == \
            ["scalar", "vector"]
        assert bench.bit_identical is True
        assert bench.speedup is not None and bench.speedup > 0.0
        scalar, vec = bench.entries
        assert scalar.events_executed == vec.events_executed > 0
        assert scalar.state_fingerprint == vec.state_fingerprint
        assert vec.vector_stats["fused_runs"] >= 1
        assert scalar.vector_stats == {}

    def test_single_backend_has_no_identity_verdict(self):
        bench = perf.bench_kernel(scale=TINY, backends=("vector",),
                                  repeat=1, shapes=("fused",))
        assert bench.bit_identical is None
        assert bench.speedup is None
        assert len(bench.entries) == 1

    def test_every_shape_cell_engages_its_loop_kind(self):
        bench = perf.bench_kernel(scale=TINY, repeat=1)
        assert [cell.shape for cell in bench.shapes] == \
            list(perf.KERNEL_BENCH_SHAPES)
        assert bench.bit_identical is True
        expected_kind = {"fused": "fused_runs",
                         "open-loop": "open_loop_runs",
                         "multi-core": "multi_core_runs"}
        for name, stat in expected_kind.items():
            cell = bench.shape(name)
            assert cell.bit_identical is True, name
            assert cell.speedup is not None and cell.speedup > 0.0
            vec = cell.entry("vector")
            assert vec.vector_stats[stat] >= 1, name
            assert vec.vector_stats["scalar_fallbacks"] == 0, name
            assert vec.fallback_reasons == {}, name
        open_vec = bench.shape("open-loop").entry("vector")
        assert open_vec.vector_stats["merged_arrivals"] > 0
        # The top level mirrors the first shape (fused).
        assert bench.entries == bench.shape("fused").entries
        assert bench.speedup == bench.shape("fused").speedup

    def test_shapes_filter_and_unknown_shape(self):
        bench = perf.bench_kernel(scale=TINY, repeat=1,
                                  shapes=("multi-core",))
        assert [cell.shape for cell in bench.shapes] == ["multi-core"]
        assert bench.entries == bench.shapes[0].entries
        assert bench.shapes[0].num_cores == 2
        with pytest.raises(Exception):
            perf.bench_kernel(scale=TINY, shapes=("bogus",))
        with pytest.raises(Exception):
            perf.bench_kernel(scale=TINY, shapes=())

    def test_json_round_trip_carries_schema_stamp(self, tmp_path):
        bench = perf.bench_kernel(scale=TINY, repeat=1)
        path = tmp_path / "BENCH_kernel.json"
        bench.write_json(str(path))
        data = json.loads(path.read_text())
        assert data["schema_version"] == perf.KERNEL_BENCH_SCHEMA_VERSION
        assert {entry["backend"] for entry in data["entries"]} == \
            {"scalar", "vector"}
        assert data["bit_identical"] is True
        assert [cell["shape"] for cell in data["shapes"]] == \
            list(perf.KERNEL_BENCH_SHAPES)
        for cell in data["shapes"]:
            assert cell["bit_identical"] is True, cell["shape"]

    def test_invalid_repeat_raises(self):
        with pytest.raises(Exception):
            perf.bench_kernel(scale=TINY, repeat=0)

    def test_cli_bench_kernel_writes_json(self, tmp_path, capsys,
                                          monkeypatch):
        # Shrink the bench so the CLI test stays fast.
        monkeypatch.setattr(perf, "KERNEL_BENCH_WINDOW_FACTOR", 0.25)
        out = tmp_path / "BENCH_kernel.json"
        assert main(["bench-kernel", "--compare", "--repeat", "1",
                     "--shape", "fused", "--shape", "open-loop",
                     "--json", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "speedup" in captured
        assert "bit-identical   True" in captured
        data = json.loads(out.read_text())
        assert len(data["entries"]) == 2
        assert [cell["shape"] for cell in data["shapes"]] == \
            ["fused", "open-loop"]


# --------------------------------------------------- profile warm wall --


def test_profile_excludes_warm_wall(monkeypatch):
    """events/s must be computed over the kernel wall, not warm time."""
    import time as time_mod

    from repro.core import runner as runner_mod
    from repro.harness import EXPERIMENTS

    def fake_experiment(scale="quick", jobs=1):
        start = time_mod.perf_counter()
        while time_mod.perf_counter() - start < 0.02:
            pass
        runner_mod._WALL_TOTALS["warm_seconds"] += 0.02

    monkeypatch.setitem(EXPERIMENTS, "warmy", fake_experiment)
    report = perf.profile_experiment("warmy", top=1)
    assert report.warm_wall_seconds == pytest.approx(0.02)
    assert report.wall_seconds < 0.02  # warm time subtracted out
    assert report.backend == "scalar"
    assert report.schema_version == perf.PROFILE_SCHEMA_VERSION


def test_profile_backend_env_is_restored(monkeypatch):
    from repro.harness import EXPERIMENTS

    monkeypatch.setitem(EXPERIMENTS, "noop", lambda scale, jobs: None)
    monkeypatch.setenv(vector.ENV_VAR, "scalar")
    perf.profile_experiment("noop", top=1, backend="vector")
    assert os.environ[vector.ENV_VAR] == "scalar"


# ----------------------------------------------------- numpy contract --


def test_numpy_meets_declared_lower_bound():
    """pyproject declares numpy>=1.22 (RandomState MT19937 bridge and
    sliceable memoryview semantics the backend relies on)."""
    major, minor = (int(part) for part in
                    np.__version__.split(".")[:2])
    assert (major, minor) >= (1, 22)
