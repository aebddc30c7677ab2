#!/usr/bin/env python3
"""Paired perfbench runs of a base revision against a head tree.

The base revision (default ``HEAD``) is exported with ``git archive`` into a
temporary directory outside the repository; the head is the working tree,
or another revision exported the same way with ``--head``. For every
workload the script runs ``perfbench/run.py`` once in each tree per pair,
on a fresh seed per pair, alternating which tree goes first, and writes one
JSON file (``--out``) holding:

* ``manifest``: both revisions, the perfbench manifest of each side
  (engine, cores, Python and numpy versions, source hash), the seeds, the
  seconds per run and the time;
* per workload and metric: the unit, which direction is better, per side
  the samples, median and interquartile range, the head/base ratio of the
  medians and the number of pairs the head won;
* per workload the runs that failed their checks (an empty list when all
  passed).

Each tree is measured by its own ``perfbench/`` and ``BENCHMARK.json``, so
the script changes neither. ``--trace 1`` compares the per-layer metrics of
traced runs instead of the end-to-end ones.

Usage (from the repository root, before committing a change)::

    python3 benchmarks/pairs.py --out pairs.json --pairs 10 --seed0 100

``--head "$(git stash create)"`` exports the uncommitted working tree as
well, so that both sides run from fresh directories of the same kind.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """Write the files of ``rev`` into a new directory under ``into``, which
    is created first if need be (``None``: the system temp directory)."""
    if into is not None:
        into.mkdir(parents=True, exist_ok=True)
    dest = Path(tempfile.mkdtemp(prefix=f"irasim-{rev.replace('/', '_')}-", dir=into))
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One perfbench run; returns its manifest line and its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        return {}, {"correct": False, "failed": 1, "metrics": {},
                    "error": (proc.stderr or proc.stdout)[-2000:]}
    return json.loads(lines[-2])["manifest"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"samples": values, "median": statistics.median(values), "iqr": q3 - q1}


def summarise(spec: list[dict], runs: list[tuple[dict, dict]]) -> dict:
    """Per metric: both sides' medians and IQRs, the ratio and the wins."""
    out = {}
    for m in spec:
        name = m["name"]
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"]) for b, h in runs
                 if name in b["metrics"] and name in h["metrics"]]
        if not pairs:
            continue
        base = spread([b for b, _ in pairs])
        head = spread([h for _, h in pairs])
        higher = m["better"] == "higher"
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "base": base,
            "head": head,
            "ratio": head["median"] / base["median"] if base["median"] else None,
            "wins": sum((h > b) if higher else (h < b) for b, h in pairs),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    ap.add_argument("--head", default=None, help="head revision (default: the working tree)")
    ap.add_argument("--workloads", nargs="+", default=None, help="default: all of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100, help="pair k runs on seed seed0 + k")
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", type=Path, default=None, help="where the exports go (default: system temp)")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    exports = []
    try:
        base_tree = export(args.base, args.work_dir)
        exports.append(base_tree)
        if args.head is None:
            head_tree = ROOT
        else:
            head_tree = export(args.head, args.work_dir)
            exports.append(head_tree)
        trees = {"base": base_tree, "head": head_tree}
        report = {
            "manifest": {
                "base": {"rev": args.base, "sha": git("rev-parse", args.base)},
                "head": ({"rev": "working tree", "sha": None, "dirty": bool(git("status", "--porcelain"))}
                         if args.head is None else {"rev": args.head, "sha": git("rev-parse", args.head)}),
                "seeds": [args.seed0 + k for k in range(args.pairs)],
                "seconds": seconds,
                "trace": args.trace,
                "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            },
            "workloads": {},
        }
        for name in workloads:
            runs = []
            failed = []
            for k in range(args.pairs):
                seed = args.seed0 + k
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                got = {}
                for side in order:
                    manifest, result = run_once(trees[side], name, seed, seconds, args.trace)
                    got[side] = result
                    if manifest:
                        report["manifest"].setdefault(f"{side}_perfbench", manifest)
                    if not result.get("correct"):
                        failed.append({"side": side, "seed": seed, "result": result})
                runs.append((got["base"], got["head"]))
                print(f"{name} seed {seed}: " + ", ".join(
                    f"{side} {got[side]['metrics'].get(metrics[0]['name'], {}).get('value')}"
                    for side in ("base", "head")), file=sys.stderr, flush=True)
            report["workloads"][name] = {"metrics": summarise(metrics, runs), "failed": failed}
        report["manifest"]["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds")
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
        return 0
    finally:
        for tree in exports:
            shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
