#!/usr/bin/env python3
"""Benchmark the receiver sweep: numba-compiled kernel vs plain Python.

Both variants run the exact same code (see irasim._kernels); the compiled
one is what IRASIM_NO_NUMBA=1 switches off. Results must match bit for bit.

Usage: python benchmarks/bench_receiver.py [--users 20000] [--load 0.2]
"""

import argparse
import time

import numpy as np

from irasim._kernels import sic_sweep_compiled, sic_sweep_python
from irasim.model import DegreeDistribution, SystemConfig
from irasim.receiver import sweep_inputs
from irasim.traffic import generate_trace


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--users", type=int, default=20_000)
    ap.add_argument("--load", type=float, default=0.2)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    cfg = SystemConfig.from_db(6.0, 1.5, 200.0)
    dist = DegreeDistribution.regular(2)
    horizon = args.users / args.load
    rng = np.random.default_rng(1)
    trace = generate_trace(cfg, dist, args.load, horizon, rng)
    print(f"trace: {trace.n_users} users, {trace.n_replicas} replicas, load {args.load}")
    kernel_args = sweep_inputs(trace, cfg)

    if sic_sweep_compiled is None:
        print("numba unavailable; only the plain path can run")
        compiled = None
    else:
        sic_sweep_compiled(*kernel_args)  # warm up the JIT
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            compiled = sic_sweep_compiled(*kernel_args)
            best = min(best, time.perf_counter() - t0)
        rate_c = trace.n_users / best
        print(f"compiled: {best:8.3f} s  ({rate_c:10.0f} users/s)")

    t0 = time.perf_counter()
    plain = sic_sweep_python(*kernel_args)
    t_plain = time.perf_counter() - t0
    print(f"python:   {t_plain:8.3f} s  ({trace.n_users / t_plain:10.0f} users/s)")

    if compiled is not None:
        same_w = np.array_equal(compiled[1], plain[1], equal_nan=True)
        assert np.array_equal(compiled[0], plain[0]) and same_w, "paths disagree"
        print(f"speedup:  {t_plain / best:8.1f}x  (identical classifications)")


if __name__ == "__main__":
    main()
