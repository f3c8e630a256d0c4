"""Benchmark entry point: host time of the simulator on one workload.

    python3 perfbench/run.py --workload fig9-quick --seed 42 \\
        --seconds 20 --trace 0

Repeats the workload, each repetition in a fresh process
(``perfbench/rep.py``), until ``--seconds`` have passed, and reports
medians over the repetitions of host times rescaled to a reference
host speed (see ``machine_probe``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions, prints the per-layer metrics, and
writes the aggregated spans to ``.perfbench_out/`` when it ends.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REP = Path(__file__).with_name("rep.py")
OUT = ROOT / ".perfbench_out"

#: Fewest repetitions a run makes, whatever ``--seconds``.
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: A repetition that takes longer than this is killed and the run fails.
REP_TIMEOUT_S = 150

#: (name, unit) of the end-to-end metrics.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("sim_jobs_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

#: Units of the per-layer metrics that are host times; every other
#: per-layer metric is a count or a simulated quantity and must repeat
#: exactly at a seed.
HOST_TIME_UNITS = ("s", "ns")

#: Host seconds ``machine_probe`` takes on the host the benchmark was
#: defined on (a 2-vCPU Firecracker VM) while no other tenant was busy.
PROBE_REFERENCE_S = 0.11
PROBE_KEYS = 150_000

MODEL_NOTE = ("model.fig9_*: unvalidated against hardware; reference is "
              "the paper's QFlex results")


class RepFailed(Exception):
    pass


def run_rep(workload: str, seed: int, traced: bool, index: int) -> dict:
    snapshot_dir = OUT / "work" / f"{os.getpid()}-{index}"
    # The workload fixes jobs, backend, cache and snapshot policy itself;
    # no REPRO_* setting of the caller may override them.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    command = [sys.executable, str(REP), "--workload", workload,
               "--seed", str(seed), "--traced", str(int(traced)),
               "--snapshot-dir", str(snapshot_dir)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(snapshot_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RepFailed(f"repetition exited {done.returncode}:\n"
                        f"{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine_probe() -> float:
    """Host seconds of a fixed, memory-bound pure-Python task that does
    not touch the simulator: build a dict and read it at random.

    Other tenants of a shared host slow the simulator in bursts lasting
    tens of seconds; the probe, run just before and after each
    repetition, sees the same bursts, so host times are rescaled by it
    to the speed of an undisturbed reference host.
    """
    started = time.perf_counter()
    rng = random.Random(12345)
    table = {key: [key] for key in range(PROBE_KEYS)}
    total = 0
    for _ in range(PROBE_KEYS):
        total += table[rng.randrange(PROBE_KEYS)][0]
    return time.perf_counter() - started


def run_reps(workload: str, seed: int, seconds: float, trace: bool):
    """Untraced (and, with ``trace``, alternating traced) repetitions,
    each with ``speed``: the reference probe time over the probe time
    measured around it (1 on an undisturbed reference host)."""
    plain, traced = [], []
    started = time.monotonic()
    while True:
        enough = (len(plain) >= (1 if trace else MIN_REPS)
                  and (not trace or len(traced) >= MIN_TRACED_REPS))
        if enough and time.monotonic() - started >= seconds:
            break
        take_traced = trace and len(traced) < len(plain)
        before = machine_probe()
        rep = run_rep(workload, seed, take_traced, len(plain) + len(traced))
        rep["speed"] = 2 * PROBE_REFERENCE_S / (before + machine_probe())
        (traced if take_traced else plain).append(rep)
    return plain, traced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def scaled(reps, name: str):
    """A host time of each repetition at reference host speed."""
    return [rep[name] * rep["speed"] for rep in reps]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this seed's cell digests as the "
                             "reference for model.digest_match")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    try:
        plain, traced = run_reps(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    reps = plain + traced

    # Correctness: every cell passes its checks, and every repetition,
    # traced or not, produces the same simulated statistics.
    attempted = sum(len(rep["cells"]) for rep in reps)
    failed = sum(1 for rep in reps for cell in rep["cells"]
                 if cell["failures"])
    problems = sorted({f"{cell['label']}: {failure}" for rep in reps
                       for cell in rep["cells"]
                       for failure in cell["failures"]})
    for rep in reps[1:]:
        if [c["digest"] for c in rep["cells"]] != \
                [c["digest"] for c in reps[0]["cells"]]:
            problems.append("simulated statistics differ between "
                            "repetitions of the same seed")
            break

    print(f"perfbench {args.workload} seed={args.seed}: {len(plain)} "
          f"untraced + {len(traced)} traced repetitions of "
          f"{len(reps[0]['cells'])} cells")
    print(f"  why: {workload.why}")
    for cell in reps[0]["cells"]:
        print(f"  cell {cell['label']}: {cell['path']}, "
              f"digest {cell['digest']}")

    if args.trace:
        metrics, report = {}, []
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead":
                value = (statistics.median(scaled(traced, "wall_s"))
                         / statistics.median(scaled(plain, "wall_s")))
            else:
                values = [rep["metrics"][name] for rep in traced]
                if unit in HOST_TIME_UNITS:
                    value = statistics.median(
                        v * rep["speed"] for v, rep in zip(values, traced))
                else:
                    value = values[0]
                    if any(v != value for v in values):
                        problems.append(f"{name} differs between traced "
                                        "repetitions")
            metrics[name] = {"value": value, "unit": unit}
            report.append(f"  {name:<36} {value:>16.6g} {unit}")
        for rep in traced:
            if not rep["consistency"]["ok"]:
                problems.append(f"span accounting does not add up: "
                                f"{rep['consistency']}")
        entries = traced[0]["layer_entries"]
        idle = [layer for layer in workload.idle_layers if entries[layer]]
        vector_cells = metrics["sim.vector_cells"]["value"]
        print("\n".join(report))
        print(f"  {MODEL_NOTE}")
        print("  bypass prediction: "
              + ("held" if not idle and workload.vector_cells in (
                  None, vector_cells)
                 else f"VIOLATED (work in {idle}, "
                      f"{vector_cells} vector cells)"))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "consistency": [rep["consistency"] for rep in traced],
            "spans": [rep["spans"] for rep in traced]}, indent=1))
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    else:
        speeds = [rep["speed"] for rep in plain]
        samples = {
            "wall_s": scaled(plain, "wall_s"),
            "setup_s": scaled(plain, "setup_s"),
            "sim_jobs_per_s": [rep["jobs"] / (rep["measure_s"] * rep["speed"])
                               for rep in plain],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain],
        }
        unscaled = {
            "wall_s": [rep["wall_s"] for rep in plain],
            "setup_s": [rep["setup_s"] for rep in plain],
            "sim_jobs_per_s": [rep["jobs"] / rep["measure_s"]
                               for rep in plain],
        }
        metrics = {}
        for name, unit in END_TO_END:
            values = samples[name]
            q1, q3 = quartiles(values)
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<16} {value:>14.6g} {unit:<4} median of "
                  f"{len(values)} (q1 {q1:.6g}, q3 {q3:.6g})"
                  + (f"; unscaled median "
                     f"{statistics.median(unscaled[name]):.6g}"
                     if name in unscaled else ""))
        q1, q3 = quartiles(speeds)
        print(f"  {'host speed':<16} {statistics.median(speeds):>14.6g} "
              f"{'':<4} median of {len(speeds)} (q1 {q1:.6g}, q3 {q3:.6g}); "
              f"host times above are scaled by it")

    print(f"  {'fail_frac':<16} {failed / attempted:>14.6g} {'':<4} "
          f"{failed} of {attempted} cells failed")

    if args.record_digests:
        path = REP.with_name("digests.json")
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored.setdefault(args.workload, {})[str(args.seed)] = {
            cell["label"]: cell["digest"] for cell in reps[0]["cells"]}
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    for problem in problems:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
