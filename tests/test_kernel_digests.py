"""Differential test of the array kernel against recorded outputs.

``sweep_digests.json`` holds, per trace, the sha256 of the kernel's
``(decoded, decided_w)`` bytes as recorded from the bisect-based kernel that
preceded the precomputed neighbour ranges. Any change to the sweep must
reproduce every digest bit for bit.

The traces cover the six ``configs/`` systems, a window at its minimum span
and a window advanced by its whole span per step, each with four degree
mixes, four loads and three seeds. Re-record them only from a kernel that
already reproduces them, for instance after the traces themselves change::

    PYTHONPATH=src python tests/test_kernel_digests.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from irasim import _kernels
from irasim.harness import parse_config_file
from irasim.model import SystemConfig
from irasim.receiver import run_sic_kernel, sweep_inputs
from irasim.traffic import generate_trace

from conftest import MIXES as MIX_LIST

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "sweep_digests.json"
CONFIGS = HERE.parent / "configs"

LOADS = (0.05, 0.3, 0.75, 1.5)
SEEDS = (11, 12, 13)
HORIZON = 800.0
MIXES = dict(zip(("x2", "x3", "lambda1", "lambda2"), MIX_LIST))


def systems() -> dict[str, SystemConfig]:
    out = {p.stem: parse_config_file(p).system for p in sorted(CONFIGS.glob("*.cfg"))}
    out["min_span_tf20"] = SystemConfig.from_db(6.0, 1.5, 20.0, window_span=1.0 + 1.0 / 20.0)
    out["step_eq_span_tf50"] = SystemConfig.from_db(6.0, 1.5, 50.0, window_span=1.5, window_step=1.5)
    return out


def cases():
    """Yield ``(case_id, trace, system)`` for every recorded trace."""
    for sys_name, cfg in systems().items():
        for mix_name, mix in MIXES.items():
            for load in LOADS:
                for seed in SEEDS:
                    rng = np.random.default_rng(seed)
                    trace = generate_trace(cfg, mix, load, HORIZON, rng)
                    yield f"{sys_name}|{mix_name}|{load:g}|{seed}", trace, cfg


def digest(decoded: np.ndarray, decided_w: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(decoded, dtype=np.bool_).tobytes())
    h.update(np.ascontiguousarray(decided_w, dtype=np.float64).tobytes())
    return h.hexdigest()


def record() -> None:
    table = {}
    for case_id, trace, cfg in cases():
        decoded, decided_w = run_sic_kernel(trace, cfg)
        table[case_id] = {"users": int(trace.n_users), "sha256": digest(decoded, decided_w)}
    rows = (f"{json.dumps(k)}: {json.dumps(table[k], sort_keys=True)}" for k in sorted(table))
    DIGESTS.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}")


def test_kernel_reproduces_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    seen = set()
    mismatches = []
    for case_id, trace, cfg in cases():
        seen.add(case_id)
        want = recorded[case_id]
        assert trace.n_users == want["users"], f"{case_id}: trace changed"
        decoded, decided_w = run_sic_kernel(trace, cfg)
        if digest(decoded, decided_w) != want["sha256"]:
            mismatches.append(case_id)
    assert seen == set(recorded)
    assert not mismatches, f"{len(mismatches)} traces differ, first {mismatches[:5]}"


def test_plain_sweep_accepts_numpy_arrays_and_memoryviews():
    mix = MIXES["lambda1"]
    for sys_name, cfg in systems().items():
        trace = generate_trace(cfg, mix, 0.75, HORIZON, np.random.default_rng(5))
        args = sweep_inputs(trace, cfg)
        views = args._make(memoryview(a) if isinstance(a, np.ndarray) else a for a in args)
        dec_a, w_a, n_a, _ = _kernels.sic_sweep_python(*args)
        dec_b, w_b, n_b, _ = _kernels.sic_sweep_python(*views)
        assert n_a == n_b == trace.n_users, sys_name
        assert digest(dec_a, w_a) == digest(dec_b, w_b), sys_name


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        raise SystemExit(__doc__)
