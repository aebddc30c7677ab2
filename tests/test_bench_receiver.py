import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_receiver_runs():
    # the benchmark reads the sweep inputs by field name; a small run keeps it
    # in step with receiver.SweepInputs and runs its agreement asserts
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_receiver.py"),
         "--users", "500", "--loads", "0.1", "--repeat", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "identical classifications" in proc.stdout
