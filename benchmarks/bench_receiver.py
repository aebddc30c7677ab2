#!/usr/bin/env python3
"""Benchmark the array receiver against its sweep alone, per load.

For each load this times ``run_sic_kernel`` (the peeling pre-pass, then the
sweep on the users it leaves) and the plain-Python sweep on the whole trace,
and with numba present also the compiled sweep. Every timed side builds its
kernel inputs with ``sweep_inputs`` inside its timing, as ``run_sic_kernel``
does, so the ratios compare like with like. It prints the share of users
the pre-pass resolved and the steps each sweep actually visited out of the
step grid. The receiver and the sweep alone must classify every user
identically, and so must the compiled and plain builds of the sweep (see
irasim._kernels).

A last row times the active sweep on an irr1 trace (degrees 2/3/5) at
G=0.75 with and without its fatal pre-test (``rad = 0`` and empty ranges),
on the same trace, and asserts that both classify every user identically.

Usage: python benchmarks/bench_receiver.py [--users 20000] [--loads 0.05 0.1 0.3]
"""

import argparse
import time

import numpy as np

from irasim import _kernels
from irasim.model import DegreeDistribution, SystemConfig
from irasim.receiver import peel, run_sic_kernel, sweep_inputs
from irasim.traffic import generate_trace


def best_of(repeat, fn):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def residual_sweep_steps(trace, cfg):
    """Steps visited by the sweep inside ``run_sic_kernel``."""
    visited = []
    active = _kernels.sic_sweep

    def counting(*args):
        out = active(*args)
        visited.append(out[3])
        return out

    _kernels.sic_sweep = counting
    try:
        run_sic_kernel(trace, cfg)
    finally:
        _kernels.sic_sweep = active
    return visited[0]


def line(label, seconds, users, visited, n_steps):
    print(f"  {label:<22s} {seconds * 1e3:9.2f} ms  ({users / seconds:9.0f} users/s)"
          f"  visited {visited} of {n_steps} steps")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--users", type=int, default=20_000)
    ap.add_argument("--loads", type=float, nargs="+", default=[0.05, 0.1, 0.3])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    cfg = SystemConfig.from_db(6.0, 1.5, 200.0)
    dist = DegreeDistribution.regular(2)
    compiled = _kernels.sic_sweep_compiled
    print(f"engine: {'numba' if _kernels.NUMBA_ENABLED else 'python'}")
    if compiled is None:
        print("numba unavailable; only the plain sweep can run")

    for load in args.loads:
        trace = generate_trace(cfg, dist, load, args.users / load, np.random.default_rng(1))
        n = trace.n_users
        kernel_args = sweep_inputs(trace, cfg)
        n_steps = kernel_args.n_steps
        peeled = peel(kernel_args)
        share = 0.0 if peeled is None else float(np.mean(~peeled[0]))
        print(f"load {load:g}: {n} users, {trace.n_replicas} replicas, "
              f"pre-pass resolved {share:.1%}")

        t_recv, (decoded, decided_w) = best_of(args.repeat, lambda: run_sic_kernel(trace, cfg))
        line("receiver", t_recv, n, residual_sweep_steps(trace, cfg), n_steps)
        t_plain, plain = best_of(
            args.repeat, lambda: _kernels.sic_sweep_python(*sweep_inputs(trace, cfg)))
        line("python sweep alone", t_plain, n, plain[3], n_steps)
        same = np.array_equal(decoded, plain[0]) and np.array_equal(decided_w, plain[1])
        assert same, "receiver and sweep alone disagree"

        if compiled is not None:
            compiled(*kernel_args)  # warm up the JIT
            t_comp, comp = best_of(args.repeat, lambda: compiled(*sweep_inputs(trace, cfg)))
            line("compiled sweep alone", t_comp, n, comp[3], n_steps)
            same_w = np.array_equal(comp[1], plain[1], equal_nan=True)
            assert np.array_equal(comp[0], plain[0]) and same_w, "paths disagree"
        print(f"  receiver vs python sweep alone: {t_plain / t_recv:.2f}x (identical classifications)")

    load = 0.75
    irr1 = DegreeDistribution.from_pairs([(2, 0.263), (3, 0.344), (5, 0.393)])
    trace = generate_trace(cfg, irr1, load, args.users / load, np.random.default_rng(1))
    with_test = sweep_inputs(trace, cfg)
    empty = np.zeros_like(with_test.f_lo)
    without = with_test._replace(rad=0.0, f_lo=empty, f_hi=empty)
    print(f"irr1 load {load:g}: {trace.n_users} users, {trace.n_replicas} replicas, "
          f"{np.mean(with_test.f_hi - with_test.f_lo > 1):.1%} have a fatal neighbour")
    t_on, on = best_of(args.repeat, lambda: _kernels.sic_sweep(*with_test))
    line("sweep, fatal pre-test", t_on, trace.n_users, on[3], with_test.n_steps)
    t_off, off = best_of(args.repeat, lambda: _kernels.sic_sweep(*without))
    line("sweep without it", t_off, trace.n_users, off[3], with_test.n_steps)
    assert np.array_equal(on[0], off[0]) and np.array_equal(on[1], off[1]), "pre-test changed outcomes"
    print(f"  fatal pre-test: {t_off / t_on:.2f}x (identical classifications)")


if __name__ == "__main__":
    main()
