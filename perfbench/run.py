"""contactfb benchmark launcher.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs the workload's pass again and again, each time in a fresh,
single-threaded worker process (perfbench/worker.py), for about S seconds
and at least MIN_PASSES times, then prints the medians.  Every pass builds
the same inputs from the seed, so the passes of one run must agree on
their digest and counts.  The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 untraced
and traced passes alternate and the metrics are the per-layer ones; names
and units are those of BENCHMARK.json.  The line before it carries the
digest, the exact counts and the environment.  See README.md beside this
file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fewest passes per kind (untraced, traced) in an untraced / traced run:
# three give a median, two show that traced counts repeat.
MIN_PASSES = {0: 3, 1: 2}
# A run must end inside 180 s: no pass starts that is expected to end
# after START_LIMIT_S, and a pass still running at KILL_S is killed.
START_LIMIT_S = 150.0
KILL_S = 170.0

# One thread everywhere: the program's own pool and any BLAS/OpenMP pool.
PINNED_ENV = {
    "CONTACTFB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def environment() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_pass(workload, seed, trace, tmp_root, tiny, timeout):
    """One fresh worker process; returns its parsed JSON result."""
    tmp = tempfile.mkdtemp(dir=tmp_root)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--tmp", tmp]
    if tiny:
        cmd.append("--tiny")
    env = {**os.environ, **PINNED_ENV}
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = time.monotonic() - t0
    return res


def run_passes(workload, seed, seconds, trace, tiny):
    """Alternate pass kinds until ``seconds`` is used up and every kind has
    its minimum number of passes; a pass starts only if it is expected to
    finish in time.  Returns {trace flag: [results]}."""
    kinds = (0, 1) if trace else (0,)
    least = MIN_PASSES[trace]
    results = {k: [] for k in kinds}
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    start = time.monotonic()
    try:
        while True:
            done = [r for rs in results.values() for r in rs]
            elapsed = time.monotonic() - start
            typical = statistics.median(r["elapsed_s"] for r in done) \
                if done else 0.0
            enough = all(len(rs) >= least for rs in results.values())
            if enough and elapsed + typical > seconds:
                break
            if elapsed + typical > START_LIMIT_S:
                if not enough:
                    raise SystemExit("passes too slow for the time limit")
                break
            kind = min(kinds, key=lambda k: len(results[k]))
            results[kind].append(run_pass(workload, seed, kind, tmp_root,
                                          tiny, KILL_S - elapsed))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return results


def agree(results, key) -> bool:
    return all(r[key] == results[0][key] for r in results)


def summarize(results, trace, spec):
    plain = results[0]
    every = [r for rs in results.values() for r in rs]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    correct = (failed == 0 and agree(every, "digest")
               and agree(every, "counts"))
    if trace:
        traced = results[1]
        correct = correct and agree(traced, "trace_counts")
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain))
    else:
        metrics = {name: statistics.median(r[name] for r in plain)
                   for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        metrics["pass_frac"] = 1.0 - failed / attempted
        metrics["bracket_ratio_gm"] = plain[0]["bracket_ratio_gm"]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    return correct, attempted, failed, {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items()}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="contactfb benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (self-tests only)")
    args = ap.parse_args()
    if not (ROOT / "src" / "contactfb" / "__init__.py").is_file():
        sys.exit(f"no contactfb source tree under {ROOT / 'src'}")

    results = run_passes(args.workload, args.seed, args.seconds,
                         args.trace, args.tiny)
    correct, attempted, failed, metrics = summarize(results, args.trace,
                                                    spec)
    first = results[0][0]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": {("traced" if k else "untraced"): len(v)
                   for k, v in results.items()},
        "pass_wall_s": {("traced" if k else "untraced"):
                        [round(r["wall_s"], 4) for r in v]
                        for k, v in results.items()},
        "digest": first["digest"],
        "counts": first["counts"],
        "trace_counts": results[1][0]["trace_counts"] if args.trace else None,
        "environment": {**environment(),
                        "using_speedups": first["using_speedups"],
                        "contactfb_threads": first["contactfb_threads"]},
    }))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
