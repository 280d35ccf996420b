"""Smoke tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def tiny(workload: str, trace: int, *extra: str) -> tuple[int, list[str], dict]:
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny", *extra)
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    declared = {k: u for k, (u, gated) in run.END_TO_END.items() if gated}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == declared
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.DECLARED


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload):
    code, lines, result = tiny(workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = {k: u for k, (u, gated) in run.END_TO_END.items() if gated}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = "\n".join(lines[:-1])
    for name, (unit, _gated) in run.END_TO_END.items():
        assert f"{name} " in report and f" {unit}" in report
    assert "environment: nproc" in report


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [tiny(workload, 1) for _ in range(2)]
    for code, lines, result in runs:
        assert code == 0 and result["correct"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == tracing.DECLARED
        report = "\n".join(lines[:-1])
        for name in tracing.REPORTED:
            assert name in report
    counts = [{k: m["value"] for k, m in r[2]["metrics"].items() if m["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert runs[0][2]["metrics"]["golden.mul_calls"]["value"] > 0


def test_same_seed_gives_byte_identical_inputs():
    code = ("import json, sys; sys.path.insert(0, 'bench'); import workloads; "
            "print(json.dumps([workloads.make_inputs(w, 11) for w in workloads.WORKLOADS]))")
    outs = [subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                           env={**os.environ, "PYTHONHASHSEED": h}).stdout
            for h in ("1", "2")]
    assert outs[0] and outs[0] == outs[1]
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 11) != workloads.make_inputs(w, 12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_answer_is_caught(workload):
    code, lines, result = tiny(workload, 0, "--corrupt", "0")
    assert code == 1 and not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]
    ratio = [float(line.split()[1]) for line in lines if line.split()[:1] == ["fail_ratio"]]
    assert ratio and ratio[0] > 0


def test_without_the_package_it_fails_without_a_result():
    bare = ROOT / ".bench_out" / "no-package"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", "renorm", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_independent_periods_match_the_published_table():
    table = {(): (1, 1), (0, 1): (3, 5), (0, 2): (4, 7), (0, 3): (4, 6),
             (1,): (2, 3), (1, 1): (5, 9), (1, 2): (7, 11), (1, 3): (6, 9),
             (2,): (2, 4)}
    for digits, want in table.items():
        assert workloads.periods_by_arc(digits) == want
