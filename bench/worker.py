"""One timed pass: a fresh interpreter that imports the package from src/,
makes the seeded inputs, prints "ready", runs every item back to back and
prints one JSON line with the per-item results.  run.py starts it; it is
not meant to be run by hand.

The package's lru_caches start cold in each pass, as for a command-line
user, and items within the pass share them, as inside one `verify` call.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pentaflow  # noqa: E402
import pentaflow.cli  # noqa: E402,F401

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS_FILE")
    ap.add_argument("--corrupt", type=int, default=-1, metavar="ITEM")
    ap.add_argument("--subset", metavar="I,J,...",
                    help="run only these item positions, in this order")
    args = ap.parse_args()

    items = workloads.make_inputs(args.workload, args.seed, args.tiny)
    positions = (list(range(len(items))) if args.subset is None
                 else [int(i) for i in args.subset.split(",")])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder(pentaflow)
        recorder.install()

    run_item = workloads.ITEMS[args.workload]
    results = []
    clock = time.perf_counter
    start = clock()
    for i in positions:
        if recorder is not None:
            recorder.item = i
        t0 = clock()
        try:
            ok, props = run_item(pentaflow, items[i], i == args.corrupt)
            error = None if ok else "wrong answer"
        except Exception as exc:  # an item that raises is a failed item
            ok, props, error = False, {}, f"{type(exc).__name__}: {exc}"
        results.append({"s": clock() - t0, "ok": ok, "error": error, "props": props})
    run_s = clock() - start

    out = {"run_s": run_s, "items": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder is not None:
        recorder.item = -1
        out["layers"] = recorder.metrics()
        recorder.write_spans(args.trace)
        recorder.restore_classes()
        values = tracing.operands(pentaflow, args.workload, items)
        out["layers"].update(tracing.kernels(pentaflow, values))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
