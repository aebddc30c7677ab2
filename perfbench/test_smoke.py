"""Smoke test of the benchmark: every workload at its smallest size.

Run from the repository root (about two minutes on two cores)::

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_without_errors(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    report_line, result_line = out.stdout.strip().splitlines()[-2:]
    report, result = json.loads(report_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert report["error_rate"] == {"value": 0.0, "unit": "ratio"}, report["failures"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["manifest"]["engine"] in ("python", "numba")
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
