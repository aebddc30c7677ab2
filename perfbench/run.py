#!/usr/bin/env python3
"""irasim benchmark: Monte Carlo throughput and floor latency on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sparse_ira2 --seed 1 --seconds 20 --trace 0

Each workload writes its configs from the named ``configs/`` files (with the
workload seed and the workload's load and size), then runs the workload's
irasim commands in a fresh interpreter (``perfbench/child.py``) again and
again until ``--seconds`` have passed. Every run checks the outputs: the
sweep CSVs repeat byte for byte, do not depend on ``--jobs`` and carry the
recorded floor values; one extra untimed repetition on a seed recorded in
``perfbench/golden.json`` must reproduce the recorded CSV; and the array
kernel agrees with the reference receiver on a small trace drawn from the
seed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from runs with spans recorded around every layer's entry point.
The line before the last holds the run manifest (engine, cores, versions,
source hash), ``error_rate`` and every sample; the last line is the result.

``--smoke`` shrinks every workload to its smallest size. ``--record``
rewrites ``golden.json`` from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
CHILD = BENCH_DIR / "child.py"
GOLDEN = BENCH_DIR / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

#: Seeds whose outputs golden.json records: the configs' default seed and a
#: held-out one.
RECORDED_SEEDS = (1, 1234)
#: Set-up samples taken before the timed loop; one more follows each
#: repetition, so the median spans the whole run.
SETUP_SAMPLES = 3
#: Users in the trace that the reference receiver classifies once per run;
#: the reference engine is quadratic, so this stays small.
ORACLE_USERS = 100
#: Load of that trace: well above the workloads' loads, so that a trace this
#: short already holds collisions that only SIC resolves.
ORACLE_LOAD = 2.0
#: Wall-clock limit for one child process.
CHILD_TIMEOUT_S = 150
FLOOR_RTOL = 1e-12
CSV_HEADER = "load,users,lost,plr,ci_lo,ci_hi,plr_floor"
ALL_CONFIGS = (
    "ira2_tf100_r15",
    "ira2_tf200_r15",
    "ira2_tf200_r20",
    "ira3_tf200_r15",
    "irr1_tf200_r15",
    "irr2_tf200_r15",
)


@dataclass(frozen=True)
class Workload:
    configs: tuple[str, ...]
    loads: tuple[float, ...] | None = None  # None keeps the config's grid
    min_users: int | None = None  # None keeps the config's value
    jobs: int = 1
    verify_periods: tuple[int, int] | None = None  # analytic only

    @property
    def simulates(self) -> bool:
        return self.verify_periods is None


# Why each workload was chosen is stated in BENCHMARK.json.
WORKLOADS = {
    "sparse_ira2": Workload(("ira2_tf100_r15",), (0.05,), 100_000),
    "dense_irr1": Workload(("irr1_tf200_r15",), (0.75,), 10_000),
    "grid_jobs2": Workload(("ira2_tf200_r15",), None, 20_000, jobs=2),
    "analytic": Workload(ALL_CONFIGS, verify_periods=(6, 8)),
}
SMOKE = {
    "sparse_ira2": replace(WORKLOADS["sparse_ira2"], min_users=10_000),
    "dense_irr1": WORKLOADS["dense_irr1"],
    "grid_jobs2": replace(WORKLOADS["grid_jobs2"], loads=(0.05, 0.4), min_users=10_000),
    "analytic": replace(WORKLOADS["analytic"], verify_periods=(6, 6)),
}


class Failures:
    """Counts operations and the ones that failed, with a reason for each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: list[str] = []

    def op(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.reasons.append(f"{what}: " + "; ".join(problems))
            print(f"FAILED {what}: " + "; ".join(problems), file=sys.stderr)


# -- inputs ---------------------------------------------------------------------


def write_config(name: str, wl: Workload, seed: int, out_dir: Path) -> Path:
    """Copy ``configs/<name>.cfg`` with the workload's seed, load and size."""
    overrides = {"seed": str(seed), "outputs": str(out_dir / name)}
    if wl.loads is not None:
        overrides["load_grid"] = " ".join(f"{g:g}" for g in wl.loads)
    if wl.min_users is not None:
        overrides["min_users_per_point"] = str(wl.min_users)
    lines = []
    for raw in (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8").splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        if key in overrides:
            continue
        lines.append(raw)
    lines += [f"{k} = {v}" for k, v in overrides.items()]
    path = out_dir / f"{name}.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def commands(wl: Workload, cfgs: list[Path], out_dir: Path, jobs: int) -> list[list[str]]:
    if wl.simulates:
        return [["sweep", str(cfgs[0]), "--jobs", str(jobs), "--out", str(out_dir / "sweep.csv")]]
    cmds = [["predict", str(c), "--out", str(out_dir / f"{c.stem}_floor.csv")] for c in cfgs]
    lo, hi = wl.verify_periods
    return cmds + [["verify-ucp", "--min-periods", str(lo), "--max-periods", str(hi)]]


# -- child processes ------------------------------------------------------------


@dataclass
class Rep:
    """One execution of a workload's commands in a fresh interpreter."""

    wall_s: float  # process wall time, interpreter start included
    rss_mb: float  # largest resident set of the process and its pool workers
    ok: bool
    result: dict
    stdout: str
    outputs: dict[str, bytes]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log_dir: Path, stdout=subprocess.DEVNULL) -> tuple[int, float, float]:
    """Run ``argv`` to completion; return (exit code, wall s, peak RSS MB)."""
    err_path = log_dir / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=stdout, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace"))
    # wait4 reports the largest resident set of the child and its waited-for
    # descendants, so pool workers are included
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_rep(cmds: list[list[str]], rep_dir: Path, trace: bool) -> Rep:
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    rep_dir.mkdir(parents=True)
    cmd_file = rep_dir / "commands.json"
    res_file = rep_dir / "result.json"
    cmd_file.write_text(json.dumps(cmds), encoding="utf-8")
    argv = [sys.executable, str(CHILD), "--commands", str(cmd_file), "--result", str(res_file)]
    if trace:
        argv.append("--trace")
    out_file = rep_dir / "stdout.txt"
    with open(out_file, "wb") as fh:
        code, wall, rss = spawn(argv, rep_dir, fh)
    result = json.loads(res_file.read_text(encoding="utf-8")) if res_file.exists() else {}
    outputs = {p.name: p.read_bytes() for p in sorted(rep_dir.glob("*.csv"))}
    return Rep(wall, rss, code == 0, result, out_file.read_text(encoding="utf-8"), outputs)


def remove_work_dir(work_dir: Path) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        WORK.rmdir()  # only once no other run uses it
    except OSError:
        pass


def setup_sample(cfgs: list[Path], log_dir: Path) -> float:
    code, wall, _ = spawn([sys.executable, str(CHILD), "--setup", *map(str, cfgs)], log_dir)
    if code != 0:
        raise RuntimeError("set-up child failed")
    return wall


# -- output checks ----------------------------------------------------------------


def load_golden() -> dict:
    if GOLDEN.exists():
        return json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {}


def wilson(lost: int, users: int) -> tuple[float, float]:
    z = statistics.NormalDist().inv_cdf(0.975)
    p = lost / users
    z2n = z * z / users
    centre = (p + z2n / 2.0) / (1.0 + z2n)
    half = z * math.sqrt(p * (1.0 - p) / users + z2n / (4.0 * users)) / (1.0 + z2n)
    return max(0.0, centre - half), min(1.0, centre + half)


def sweep_rows(text: str) -> list[list[str]]:
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# phi=") or lines[1] != CSV_HEADER:
        raise ValueError("malformed sweep CSV header")
    return [ln.split(",") for ln in lines[2:]]


def check_sweep_csv(data: bytes, cfg, floors: dict) -> tuple[list[str], list[list]]:
    """Check one sweep CSV on its own; return (problems, [[load, users, lost]])."""
    problems: list[str] = []
    counts = []
    try:
        rows = sweep_rows(data.decode())
    except ValueError as exc:
        return [str(exc)], []
    want_loads = [f"{g:g}" for g in cfg.load_grid]
    if [r[0] for r in rows] != want_loads:
        problems.append(f"loads {[r[0] for r in rows]} != {want_loads}")
    for r in rows:
        if len(r) != 7:
            problems.append(f"row {r} has {len(r)} fields")
            continue
        users, lost = int(r[1]), int(r[2])
        counts.append([float(r[0]), users, lost])
        if not 0 <= lost <= users or users == 0:
            problems.append(f"load {r[0]}: lost {lost} of {users}")
            continue
        if users < cfg.min_users_per_point and lost < cfg.max_lost_events:
            problems.append(f"load {r[0]}: stopped at {users} users")
        lo, hi = wilson(lost, users)
        want = [f"{lost / users:.6e}", f"{lo:.6e}", f"{hi:.6e}"]
        if r[3:6] != want:
            problems.append(f"load {r[0]}: plr/ci {r[3:6]} != {want}")
        floor = floors.get(r[0])
        if floor is None or r[6] != f"{floor:.6e}":
            problems.append(f"load {r[0]}: plr_floor {r[6]} != recorded {floor}")
    return problems, counts


def check_verify_output(stdout: str, wl: Workload, golden: dict) -> tuple[list[str], int]:
    """Check every printed configuration count against comb(n, num_sets) *
    iso_count of the recorded catalog; return (problems, counts printed)."""
    catalog = golden.get("catalog", {})
    lo, hi = wl.verify_periods
    lines = [ln for ln in stdout.splitlines() if not ln.startswith("wrote ")]
    problems = []
    checked = 0
    for ln in lines:
        if " n=" not in ln or ": enumerated " not in ln:
            continue
        name, rest = ln.split(" n=", 1)
        name = name.strip()
        n_s, rest = rest.split(": enumerated ", 1)
        got = int(rest.split(",", 1)[0])
        checked += 1
        entry = catalog.get(name)
        if entry is None:
            problems.append(f"pattern {name} not recorded")
            continue
        want = math.comb(int(n_s), entry["num_sets"]) * entry["iso_count"]
        if got != want:
            problems.append(f"{name} n={n_s}: {got} != comb*iso {want}")
    expected = len(catalog) * (hi - lo + 1)
    if checked != expected:
        problems.append(f"{checked} configuration counts printed, expected {expected}")
    if not lines or lines[-1] != "all configuration counts verified":
        problems.append("verify-ucp did not report success")
    return problems, checked


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Checks each repetition against the first one, the recorded values and
    the output contract of its command."""

    def __init__(self, name: str, wl: Workload, seed: int, golden: dict, smoke: bool, out_dir: Path):
        from irasim.harness import parse_config_file

        out_dir.mkdir(parents=True, exist_ok=True)
        self.wl = wl
        self.seed = seed
        self.cfg_paths = [write_config(c, wl, seed, out_dir) for c in wl.configs]
        self.cfgs = [parse_config_file(p) for p in self.cfg_paths]
        self.golden = golden
        self.key = name + ("@smoke" if smoke else "")
        self.recorded = golden.get("runs", {}).get(self.key, {}).get(str(seed))
        self.first: dict[str, bytes] | None = None
        self.work: float | None = None

    def floors(self, config_name: str) -> dict:
        return {f"{float(k):g}": v for k, v in self.golden.get("floor", {}).get(config_name, {}).items()}

    def check(self, rep: Rep) -> list[str]:
        problems = []
        if not rep.ok:
            problems.append(f"exit codes {rep.result.get('codes')}")
            if rep.result.get("error"):
                problems.append(rep.result["error"].strip().splitlines()[-1])
            return problems
        if self.first is None:
            self.first = rep.outputs
        elif rep.outputs != self.first:
            problems.append("outputs differ from the first repetition")
        if self.wl.simulates:
            data = rep.outputs.get("sweep.csv", b"")
            probs, counts = check_sweep_csv(data, self.cfgs[0], self.floors(self.wl.configs[0]))
            problems += probs
            work = sum(c[1] for c in counts)
            if self.recorded is not None:
                if counts != self.recorded["rows"]:
                    problems.append(f"(load, users, lost) {counts} != recorded {self.recorded['rows']}")
                if sha256(data) != self.recorded["sha256"]:
                    problems.append("sweep CSV sha256 differs from the recorded one")
        else:
            recorded = self.golden.get("runs", {}).get(self.key, {})
            work = 0
            for name, cfg in zip(self.wl.configs, self.cfgs):
                data = rep.outputs.get(f"{name}_floor.csv", b"")
                lines = data.decode().splitlines()
                floors = self.floors(name)
                want = [f"{g:g},,,,,,{floors.get(f'{g:g}', math.nan):.6e}" for g in cfg.load_grid]
                if lines[1:2] != [CSV_HEADER] or lines[2:] != want:
                    problems.append(f"{name}: predict rows {lines[2:]} != recorded {want}")
                if recorded.get(name) and sha256(data) != recorded[name]:
                    problems.append(f"{name}: predict CSV sha256 differs from the recorded one")
                work += len(lines) - 2
            probs, counted = check_verify_output(rep.stdout, self.wl, self.golden)
            problems += probs
            work += counted
        self.work = work
        return problems


def oracle_problems(cfg, seed: int) -> list[str]:
    """Array kernel == reference receiver (and compiled == plain kernel when
    numba is present) on a small trace drawn from the seed."""
    import numpy as np
    from irasim import _kernels
    from irasim.receiver import run_receiver, run_sic_kernel
    from irasim.traffic import TrafficTrace, generate_trace

    horizon = max(2.0 * ORACLE_USERS / ORACLE_LOAD, 2.0 * cfg.system.window_length)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xB,)))
    full = generate_trace(cfg.system, cfg.distribution, ORACLE_LOAD, horizon, rng)
    k = min(ORACLE_USERS, full.n_users)
    ptr = full.rep_ptr[: k + 1]
    trace = TrafficTrace(full.arrival[:k], full.degree[:k], ptr, full.rep_start[: ptr[-1]],
                         full.horizon, full.load, full.vf_span)
    problems = []
    dec_k, lost_k = run_receiver(trace, cfg.system)
    dec_r, lost_r = run_receiver(trace, cfg.system, engine="reference")
    if not (np.array_equal(dec_k, dec_r) and np.array_equal(lost_k, lost_r)):
        problems.append("kernel and reference receiver classify the oracle trace differently")
    if _kernels.sic_sweep_compiled is not None:
        captured = []
        active = _kernels.sic_sweep

        def capture(*args):
            captured.append(args)
            return active(*args)

        _kernels.sic_sweep = capture
        try:
            run_sic_kernel(trace, cfg.system)
        finally:
            _kernels.sic_sweep = active
        compiled = _kernels.sic_sweep_compiled(*captured[0])
        plain = _kernels.sic_sweep_python(*captured[0])
        same_w = np.array_equal(compiled[1], plain[1], equal_nan=True)
        if not (np.array_equal(compiled[0], plain[0]) and same_w):
            problems.append("compiled and plain kernels classify the oracle trace differently")
    return problems


def floor_problems(wl: Workload, cfgs: list, golden: dict) -> list[str]:
    from irasim.errorfloor import plr_floor

    problems = []
    for name, cfg in zip(wl.configs, cfgs):
        recorded = golden.get("floor", {}).get(name, {})
        for g in cfg.load_grid:
            want = recorded.get(f"{g:g}")
            got = plr_floor(g, cfg.system, cfg.distribution)
            if want is None or not math.isclose(got, want, rel_tol=FLOOR_RTOL, abs_tol=0.0):
                problems.append(f"{name} G={g:g}: plr_floor {got!r} != recorded {want!r}")
    return problems


# -- metrics --------------------------------------------------------------------


def layer_metrics(result: dict, counted_users: float) -> dict:
    """Per-layer figures of one traced repetition, from its spans."""
    spans = result["spans"]
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["t1"] - s["t0"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    commands_s = sum(dur(s) for s in named("cli.command"))
    gen = named("traffic.generate_trace")
    rsk = named("receiver.run_sic_kernel")
    swp = named("kernels.sic_sweep")
    flo = named("errorfloor.plr_floor")
    cnt = named("errorfloor.count_configurations")
    prs = named("cli.parse_config_file")
    generate_s = sum(map(dur, gen))
    receiver_s = sum(map(dur, rsk))
    sweep_s = sum(map(dur, swp))
    nested_sweep_s = sum(dur(s) for s in swp if s["parent"] is not None
                         and by_id[s["parent"]]["name"] == "receiver.run_sic_kernel")
    top_level_s = sum(dur(s) for s in spans if s["parent"] is not None
                      and by_id[s["parent"]]["name"] == "cli.command")
    generated = sum(s["attrs"]["users"] for s in gen)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "kernels.sweep_s": sweep_s,
        "kernels.users_per_s": ratio(sum(s["attrs"]["users"] for s in swp), sweep_s),
        "kernels.replicas_per_s": ratio(sum(s["attrs"]["replicas"] for s in swp), sweep_s),
        "kernels.share": ratio(sweep_s, commands_s),
        "kernels.steps": sum(s["attrs"]["steps"] for s in swp),
        "traffic.generate_s": generate_s,
        "traffic.users_per_s": ratio(generated, generate_s),
        "traffic.calls": len(gen),
        "receiver.prep_s": receiver_s - nested_sweep_s,
        "harness.self_s": commands_s - top_level_s,
        "harness.batches": len(rsk),
        "harness.counted_fraction": ratio(counted_users, generated),
        "harness.busy_s": generate_s + receiver_s,
        "errorfloor.plr_floor_ms": statistics.median(map(dur, flo)) * 1e3 if flo else 0.0,
        "errorfloor.m_terms": sum(s["attrs"].get("m_terms", 0) for s in flo),
        "errorfloor.count_configurations_s": sum(map(dur, cnt)),
        "cli.parse_s": sum(map(dur, prs)),
        "commands_s": commands_s,
    }


def manifest(name: str, seed: int, trace: int, smoke: bool) -> dict:
    import numpy as np
    from irasim import _kernels

    digest = hashlib.sha256()
    for path in sorted((SRC / "irasim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to name
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "engine": "numba" if _kernels.NUMBA_ENABLED else "python",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def with_units(values: dict, spec: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


# -- one benchmark run ------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: int, smoke: bool, spec: dict) -> int:
    wl = (SMOKE if smoke else WORKLOADS)[name]
    golden = load_golden()
    work_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        checker = Checker(name, wl, seed, golden, smoke, work_dir)
        cfg_paths = checker.cfg_paths
        fails = Failures()
        setup_sample(cfg_paths, work_dir)  # the first start also writes bytecode caches
        setup_s = [setup_sample(cfg_paths, work_dir) for _ in range(SETUP_SAMPLES)]

        def rep(jobs: int, traced: bool, tag: str, chk: Checker = checker) -> Rep:
            rep_dir = work_dir / tag
            r = run_rep(commands(wl, chk.cfg_paths, rep_dir, jobs), rep_dir, traced)
            what = f"{tag} (seed {chk.seed}, {'traced' if traced else 'untraced'}, jobs {jobs})"
            fails.op(chk.check(r), what)
            return r

        if wl.simulates:
            fails.op(oracle_problems(checker.cfgs[0], seed), "reference receiver oracle")
            # Outputs of the run's own seed can only be checked for
            # consistency, so every run also checks one recorded seed.
            recorded_seed = RECORDED_SEEDS[seed % len(RECORDED_SEEDS)]
            if recorded_seed != seed:
                rep(wl.jobs, False, "recorded",
                    Checker(name, wl, recorded_seed, golden, smoke, work_dir / "recorded_cfg"))
        fails.op(floor_problems(wl, checker.cfgs, golden), "plr_floor against recorded values")
        if wl.jobs != 1:  # the jobs-1 CSV every jobs-N repetition must equal
            rep(1, False, "jobs1")
        timed: list[Rep] = []
        layers: list[dict] = []
        t_end = time.perf_counter() + seconds
        while True:
            i = len(timed)
            r = rep(wl.jobs, False, f"rep{i}")
            setup_s.append(setup_sample(cfg_paths, work_dir))
            if r.ok:
                timed.append(r)
            if trace:
                # untraced jobs-1 and traced jobs-1 back to back: the same
                # batches, so their ratio is the tracing overhead
                base = r if wl.jobs == 1 else rep(1, False, f"jobs1_{i}")
                t = rep(1, True, f"traced{i}")
                if r.ok and base.ok and t.ok:
                    m = layer_metrics(t.result, checker.work)
                    m["trace.overhead_frac"] = m["commands_s"] / base.result["command_s"] - 1.0
                    m["harness.parallel_eff"] = m["harness.busy_s"] / (wl.jobs * r.result["command_s"])
                    layers.append(m)
            if time.perf_counter() >= t_end or not r.ok:
                break

        def median(values):
            values = list(values)
            return statistics.median(values) if values else 0.0

        report = {
            "manifest": manifest(name, seed, trace, smoke),
            "error_rate": {"value": len(fails.reasons) / fails.attempted, "unit": "ratio"},
            "failures": fails.reasons,
            "work_units": checker.work,
            "samples": {
                "wall_s": [r.wall_s for r in timed],
                "command_s": [r.result["command_s"] for r in timed],
                "peak_rss_mb": [r.rss_mb for r in timed],
                "setup_s": setup_s,
            },
        }
        if trace:
            per_layer = {m["name"]: median(x[m["name"]] for x in layers) for m in spec["per_layer"]}
            metrics = with_units(per_layer, spec["per_layer"])
            report["samples"]["traced"] = layers
        else:
            e2e = {
                "work_per_s": median((checker.work or 0) / r.wall_s for r in timed),
                "wall_s": median(r.wall_s for r in timed),
                "setup_s": median(setup_s),
                "peak_rss_mb": median(r.rss_mb for r in timed),
            }
            metrics = with_units(e2e, spec["end_to_end"])
        print(json.dumps(report))
        failed = len(fails.reasons)
        print(json.dumps({"correct": failed == 0, "attempted": fails.attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        remove_work_dir(work_dir)


def record() -> int:
    """Rewrite golden.json from the current code (jobs-1 runs)."""
    from irasim.errorfloor import builtin_catalog, plr_floor
    from irasim.harness import parse_config_file

    golden: dict = {
        "catalog": {p.name: {"num_sets": p.num_sets, "iso_count": p.iso_count} for p in builtin_catalog()},
        "floor": {},
        "runs": {},
    }
    work_dir = WORK / f"record-{os.getpid()}"
    try:
        for smoke, table in ((False, WORKLOADS), (True, SMOKE)):
            for name, wl in table.items():
                key = name + ("@smoke" if smoke else "")
                runs = golden["runs"].setdefault(key, {})
                for seed in RECORDED_SEEDS if wl.simulates else RECORDED_SEEDS[:1]:
                    d = work_dir / key / str(seed)
                    d.mkdir(parents=True)
                    cfg_paths = [write_config(c, wl, seed, d) for c in wl.configs]
                    for c, p in zip(wl.configs, cfg_paths):
                        cfg = parse_config_file(p)
                        floors = golden["floor"].setdefault(c, {})
                        for g in cfg.load_grid:
                            floors[f"{g:g}"] = plr_floor(g, cfg.system, cfg.distribution)
                    r = run_rep(commands(wl, cfg_paths, d / "out", 1), d / "out", False)
                    if not r.ok:
                        raise RuntimeError(f"{key} seed {seed} failed: {r.result}")
                    if wl.simulates:
                        data = r.outputs["sweep.csv"]
                        rows = [[float(x[0]), int(x[1]), int(x[2])] for x in sweep_rows(data.decode())]
                        runs[str(seed)] = {"rows": rows, "sha256": sha256(data)}
                    else:
                        runs.update({c: sha256(r.outputs[f"{c}_floor.csv"]) for c in wl.configs})
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    finally:
        remove_work_dir(work_dir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=RECORDED_SEEDS[0])
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest size of every workload")
    ap.add_argument("--record", action="store_true", help="rewrite golden.json and exit")
    args = ap.parse_args(argv)
    if not (SRC / "irasim" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"error: no irasim sources under {ROOT}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    return run(args.workload, args.seed, seconds, args.trace, args.smoke, spec)


if __name__ == "__main__":
    sys.exit(main())
