"""Benchmark: regenerate the Sec. VI-D garbage-collection analysis."""

from conftest import run_once

from repro.harness import run_experiment


def test_gc_overheads(benchmark, harness_scale):
    result = run_once(benchmark, run_experiment, "gc_overheads",
                      scale=harness_scale)
    print("\n" + result.format_table())

    rows = {row[0]: row[1] for row in result.rows}
    # Paper: ~4% of requests blocked at 256 GiB, <1% at 1 TiB.
    assert abs(rows[256] - 0.04) < 1e-9
    assert rows[1024] <= 0.01
    # Blocking scales inversely with capacity (more planes).
    assert rows[128] > rows[256] > rows[512] > rows[1024]
    # The stress device must actually block reads behind GC.
    assert result.measurements["stress_blocked_fraction"] > 0.0
