"""One benchmark pass in a fresh process: set-up, one timed pass, checks.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --t0 T --trace 0|1 \
        --tmp DIR [--tiny]

``--t0`` is ``time.monotonic()`` read by the launcher just before it
started this process, so ``setup_s`` covers interpreter start, imports,
obstacle construction and input generation.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    import contactfb
    from tracer import Tracer, exact_counts, layer_metrics
    from workloads import WORKLOADS

    if Path(contactfb.__file__).resolve().parent != ROOT / "src" / "contactfb":
        sys.exit(f"imported contactfb from {contactfb.__file__}, "
                 f"not from this checkout")
    make_inputs, run, check = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, args.tiny)
    setup_s = time.monotonic() - args.t0

    tracer = Tracer().install() if args.trace else None
    cpu0, child0 = time.process_time(), _children_cpu()
    t0 = time.perf_counter()
    outputs = run(inputs, args.tmp)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0 + _children_cpu() - child0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
    outcome = check(inputs, outputs)
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "bracket_ratio_gm": outcome.bracket_ratio_gm(),
        "digest": outcome.digest(),
        "counts": dict(sorted(outcome.counts.items())),
        "using_speedups": contactfb.USING_SPEEDUPS,
        "contactfb_threads": os.environ.get("CONTACTFB_THREADS"),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["trace_counts"] = exact_counts(result["layers"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
