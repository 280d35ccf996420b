"""pentaflow benchmark: one command, three workloads, every answer checked.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the src/ directory next to
bench/.  See bench/README.md for the workloads, the metrics and their units.

Each pass is a fresh interpreter (worker.py).  With --trace 0 the first
pass runs every seeded item; then passes of the repeated items
(workloads.repeated_positions) follow for --seconds, at least two.  An
item's latency is its fastest pass.  With --trace 1 a traced pass over every
item gives the per-layer metrics, then an untraced pass over the repeated
items gives the tracing overhead.  A human-readable report comes first; the
last line of standard output is one JSON object.  Results, the environment
and the spans are also written under .bench_out/.

Exit codes: 0 all answers correct, 1 some item failed, 2 usage error or no
package to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: end-to-end metrics; the ones marked True are declared in BENCHMARK.json
#: (see README.md for why the timings are printed but not declared)
END_TO_END = {
    "setup_s": ("s", True),
    "run_s": ("s", False),
    "items_per_s": ("1/s", False),
    "item_p50_ms": ("ms", False),
    "item_tail_ms": ("ms", False),
    "peak_rss_mb": ("MB", True),
    "fail_ratio": ("ratio", False),
}
SETUP_RUNS = 9
#: a pass that runs longer than this is killed and its items count as failed
PASS_TIMEOUT_S = 160
#: repeat passes after the first, however long they take (within RUN_LIMIT_S)
MIN_REPEATS = 2
#: no repeat pass starts that would end after this long
RUN_LIMIT_S = 165
NOTES = {
    "run_s": "  (first pass, {n} items)",
    "items_per_s": "  ({n} items in the first pass)",
    "item_p50_ms": "  (median of {n} items, each its fastest of up to {passes} passes)",
    "item_tail_ms": "  (p{pct:.1f} of {n} items)",
    "peak_rss_mb": "  (first pass)",
}


def environment(seed: int) -> dict:
    src = ROOT / "src" / "pentaflow"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def spawn(args: argparse.Namespace, *extra: str) -> tuple[float, dict | None, str]:
    """Run one worker; returns (seconds until it was ready, its result or
    None if it failed, its standard error)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return time.perf_counter() - start, None, f"pass killed after {PASS_TIMEOUT_S} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        return setup_s, None, err
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else {}), err


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    s = sorted(latencies)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def properties(workload: str, items: list[dict]) -> dict[str, float]:
    n = len(items)

    def share(pred):
        return sum(1 for it in items if pred(it["props"])) / n

    if workload == "oracle":
        return {"oracle.billiard_share": share(lambda p: p.get("billiard")),
                "oracle.gen4_share": share(lambda p: p.get("gen") == 4)}
    if workload == "symbolic":
        return {"symbolic.big_word_share": share(lambda p: p.get("big_word"))}
    return {"renorm.long_run_share": share(lambda p: p.get("long_run"))}


def summarize(passes: list[dict], positions: list[list[int]], setups: list[float],
              n_items: int) -> dict:
    """End-to-end metrics; passes[k] ran the items at positions[k], and the
    first pass ran them all."""
    times: list[list[float]] = [[] for _ in range(n_items)]
    for p, where in zip(passes, positions):
        for i, it in zip(where, p["items"]):
            times[i].append(it["s"])
    # each item's latency is its fastest pass: other tenants of a shared
    # machine only ever slow a pass down, by up to 2x for minutes at a time
    per_item = [min(t) for t in times]
    tail_ms, tail_pct = tail([1000 * s for s in per_item])
    run_s = passes[0]["run_s"]
    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(1 for p in passes for it in p["items"] if not it["ok"])
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "items_per_s": n_items / run_s,
        "item_p50_ms": 1000 * statistics.median(per_item),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "fail_ratio": failed / attempted,
        "_tail_percentile": tail_pct,
        "_item_ms": [1000 * s for s in per_item],
        "_passes": [len(t) for t in times],
    }


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few cheap items, for the smoke tests")
    ap.add_argument("--corrupt", type=int, default=-1, metavar="ITEM",
                    help="perturb this item's answer before it is checked, "
                         "to show that the checks catch it")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pentaflow" / "__init__.py").is_file():
        print(f"bench: no package at {ROOT / 'src' / 'pentaflow'}", file=sys.stderr)
        return 2
    if not all((workloads.FRAMES / f"{w}.json").is_file() for w in ("oracle", "renorm")):
        print(f"bench: sampling frames missing under {workloads.FRAMES}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny)
    n_items = len(inputs)
    repeated = workloads.repeated_positions(inputs)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups, errors = [], []

    def run_pass(*extra: str, count: int = n_items) -> dict:
        setup_s, result, err = spawn(args, "--corrupt", str(args.corrupt), *extra)
        setups.append(setup_s)
        if result is None:
            errors.append(err.strip().splitlines()[-1] if err.strip() else "worker failed")
            result = {"run_s": float("nan"), "peak_rss_mb": float("nan"),
                      "items": [{"s": float("nan"), "ok": False, "error": errors[-1],
                                 "props": {}} for _ in range(count)]}
        return result

    for _ in range(SETUP_RUNS):
        setup_s, result, err = spawn(args, "--setup-only")
        if result is None:
            print(f"bench: worker failed during set-up:\n{err}", file=sys.stderr)
            return 2
        setups.append(setup_s)

    layers = None
    if args.trace:
        # traced pass first; then the repeated items untraced
        traced = run_pass("--trace", str(out_dir / f"spans-{stem}.jsonl"))
        checked = [traced]
        subset = [] if errors else repeated
        layers = {**dict.fromkeys(tracing.DECLARED), **dict.fromkeys(tracing.REPORTED),
                  **traced.get("layers", {})}
        if subset:
            plain = run_pass("--subset", ",".join(map(str, subset)), count=len(subset))
            checked.append(plain)
            traced_s = sum(traced["items"][i]["s"] for i in subset)
            layers["trace.overhead_ratio"] = traced_s / plain["run_s"]
        item_results = traced["items"]
    else:
        passes, positions = [run_pass()], [list(range(n_items))]
        repeat_arg = ",".join(map(str, repeated))
        repeats_from = time.perf_counter()
        while repeated and not errors:
            positions.append(repeated)
            passes.append(run_pass("--subset", repeat_arg, count=len(repeated)))
            now = time.perf_counter()
            typical = statistics.median(p["run_s"] for p in passes[1:])
            if errors or not ((len(passes) <= MIN_REPEATS
                               or now - repeats_from + typical <= args.seconds)
                              and now - started + typical <= RUN_LIMIT_S):
                break
        checked = passes
        summary = summarize(passes, positions, setups, n_items)
        item_results = passes[0]["items"]
    props = properties(args.workload, item_results)
    attempted = sum(len(p["items"]) for p in checked)
    failed = sum(1 for p in checked for it in p["items"] if not it["ok"])

    print(f"pentaflow benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {len(checked)} pass(es) "
          f"of up to {n_items} items, closed loop with one client")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if layers is None:
        for name, (unit, _declared) in END_TO_END.items():
            print(f"  {name:<24} {summary[name]:.6g} {unit}{NOTES.get(name, '')}"
                  .format(n=n_items, pct=summary["_tail_percentile"],
                          passes=len(passes)))
    else:
        units = {**tracing.DECLARED, **tracing.REPORTED}
        for name in sorted(units):
            value = layers[name]
            shown = ("n/a (layer idle in this workload)" if value is None
                     else f"{value:.6g} {units[name]}")
            print(f"  {name:<42} {shown}")
        if subset:
            print(f"  (overhead ratio over {len(subset)} of {n_items} items)")
    for name, value in props.items():
        print(f"  {name:<24} {value:.4f} share")
    for it in (it for p in checked for it in p["items"] if not it["ok"]):
        print(f"  FAILED item: {it['error']}")

    if layers is not None:
        units = dict(tracing.DECLARED)
        values = {k: layers[k] for k in units}
        record = {"layers": layers, "overhead_items": len(subset)}
    else:
        units = {k: u for k, (u, declared) in END_TO_END.items() if declared}
        values = {k: summary[k] for k in units}
        record = {"end_to_end": {k: summary[k] for k in END_TO_END},
                  "tail_percentile": summary["_tail_percentile"],
                  "item_ms": summary["_item_ms"], "item_passes": summary["_passes"],
                  "pass_run_s": [p["run_s"] for p in passes],
                  "pass_item_s": [[it["s"] for it in p["items"]] for p in passes]}
    record.update(workload=args.workload, trace=args.trace, environment=env,
                  items=n_items, attempted=attempted, failed=failed,
                  properties=props, setup_s=setups)
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    values = {k: None if v != v else v for k, v in values.items()}  # NaN: a pass died
    correct = failed == 0 and all(v is not None for v in values.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]}
                                  for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
