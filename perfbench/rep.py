"""One repetition of one benchmark workload, in a fresh process.

Runs the workload's cells through ``repro.harness.parallel.run_specs``
with ``jobs=1``, the default (vector-preferred) backend, the result
cache off and warm-state snapshots on in an empty directory, which is
deleted afterwards.  Each cell goes through its own ``run_specs`` call
so that a cell that raises is counted and the sweep goes on; at
``jobs=1`` that is the same in-process loop a single call runs, and
snapshots are shared through the same directory and in-process memo.

Prints one JSON object: host times, peak RSS, per-cell engine path,
digest and check failures, the ``model.*`` outputs and, with
``--traced 1``, the per-layer metrics and aggregated spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.runner import Runner  # noqa: E402
from repro.harness.parallel import ParallelRunError, run_specs  # noqa: E402
from repro.sim import vector  # noqa: E402

from perfbench import checks, layers, spans  # noqa: E402
from perfbench.workloads import WORKLOADS, cell_label  # noqa: E402

DIGESTS = Path(__file__).with_name("digests.json")

_VECTOR_RUNS = ("fused_runs", "job_epoch_runs", "open_loop_runs",
                "multi_core_runs")


class SetupClock:
    """Host time a cell spends before ``Runner.run``, plus any warm-up
    that runs inside it: config, machine and dataset builds, and the
    warm-up or snapshot restore of the DRAM tier."""

    def __init__(self) -> None:
        self.run_entry = None
        self.warm_in_run = 0.0
        run, warm = Runner.run, Runner.warm
        clock = self

        def timed_run(runner):
            clock.run_entry = time.perf_counter()
            return run(runner)

        def timed_warm(runner, *args, **kwargs):
            started = time.perf_counter()
            try:
                return warm(runner, *args, **kwargs)
            finally:
                if clock.run_entry is not None:
                    clock.warm_in_run += time.perf_counter() - started

        Runner.run, Runner.warm = timed_run, timed_warm

    def start_cell(self) -> None:
        self.run_entry = None
        self.warm_in_run = 0.0

    def setup_s(self, cell_start: float, cell_end: float) -> float:
        if self.run_entry is None:  # the cell failed before Runner.run
            return cell_end - cell_start
        return self.run_entry - cell_start + self.warm_in_run


def engine_path(before, after, reasons_before, reasons_after) -> str:
    """The vector loop a cell ran on, or ``scalar (<fallback reason>)``."""
    for kind in _VECTOR_RUNS:
        if after[kind] > before[kind]:
            return kind[:-len("_runs")].replace("_", "-")
    reasons = [reason for reason, count in reasons_after.items()
               if count > reasons_before.get(reason, 0)]
    return f"scalar ({reasons[0]})" if reasons else "scalar"


def peak_rss_mb() -> float:
    """This process's peak resident memory, in MiB.

    ``VmHWM`` is the peak of this process's own address space.
    ``ru_maxrss`` is the fallback where /proc is missing; on Linux it
    also counts the parent's memory, inherited across fork and exec.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_digests(workload: str, seed: int):
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return stored.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--snapshot-dir", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    specs = workload.build(args.seed)
    snapshot_dir = Path(args.snapshot_dir)
    if snapshot_dir.exists():
        parser.error(f"snapshot directory {snapshot_dir} already exists")

    clock = SetupClock()
    tracer = None
    if args.traced:
        tracer = spans.LayerTracer()
        spans.install(tracer)

    results, paths, failures = [], [], []
    setup_s = 0.0
    try:
        started = tracer.begin() if tracer else time.perf_counter()
        for spec in specs:
            stats, reasons = vector.stats(), vector.fallback_reasons()
            clock.start_cell()
            cell_start = time.perf_counter()
            try:
                result = run_specs([spec], jobs=1, cache=False,
                                   snapshots=True,
                                   snapshot_dir=snapshot_dir)[0]
                failure = []
            except ParallelRunError as exc:
                result, failure = None, [f"raised {exc.cause!r}"]
            setup_s += clock.setup_s(cell_start, time.perf_counter())
            results.append(result)
            failures.append(failure)
            paths.append(engine_path(stats, vector.stats(), reasons,
                                     vector.fallback_reasons()))
        ended = tracer.finish() if tracer else time.perf_counter()
    finally:
        shutil.rmtree(snapshot_dir, ignore_errors=True)

    for spec, result, failure in zip(specs, results, failures):
        if result is not None:
            failure.extend(checks.cell_problems(spec, result))
    if args.workload == "fig9-quick":
        bad = checks.fig9_order_violations(checks.fig9_norms(specs, results))
        for spec, failure in zip(specs, failures):
            if spec.config_name in bad:
                failure.append("Fig. 9 order flash-sync < os-swap < "
                               f"astriflash <= {checks.FIG9_CEILING} broken")

    digests = [checks.digest(result) for result in results]
    done = [result for result in results if result is not None]
    output = {
        "wall_s": ended - started,
        "setup_s": setup_s,
        "measure_s": sum(r.wall_seconds - r.warm_wall_seconds for r in done),
        "jobs": sum(r.completed_jobs for r in done),
        "peak_rss_mb": peak_rss_mb(),
        "cells": [{"label": cell_label(spec), "path": path, "digest": value,
                   "failures": failure}
                  for spec, path, value, failure
                  in zip(specs, paths, digests, failures)],
        "metrics": layers.model_metrics(
            specs, results, digests,
            reference_digests(args.workload, args.seed)),
    }
    if tracer is not None:
        output["metrics"].update(
            layers.layer_metrics(specs, results, paths, tracer))
        output["consistency"] = tracer.consistency()
        output["layer_entries"] = tracer.layer_entries()
        output["spans"] = tracer.spans()
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
