"""Run irasim CLI commands in one process, as a user would, for the benchmark.

Usage (started by ``run.py``, never imported by it)::

    python3 perfbench/child.py --commands cmds.json --result res.json [--trace]
    python3 perfbench/child.py --setup cfg [cfg ...]

``--commands`` names a JSON list of argv lists; each goes through
``irasim.cli.main``. The result file gets the exit codes, the wall time of
the commands and, with ``--trace``, one span per call into a layer.

``--setup`` does what every command pays before its work starts: import
irasim and parse the configs, and compile the kernel when numba is present.

Spans are recorded by wrapping each layer's entry point where its caller
looks it up, so nothing inside ``src/`` changes:

* ``harness.generate_trace``        traffic layer
* ``harness.run_sic_kernel``        receiver layer (kernel input preparation)
* ``_kernels.sic_sweep``            kernel layer; the receiver reads the
  module attribute on every call, so one wrapper sees every sweep
* ``harness.plr_floor``, ``cli.count_configurations``  errorfloor layer
* ``cli.parse_config_file``         config parsing
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback


class SpanRecorder:
    """In-memory spans: name, start, end, the enclosing span and counters."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "t0": time.perf_counter(),
            "t1": None,
            "attrs": attrs or {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``module.attr`` with a wrapper that records one span per call.

        ``before(args, kwargs)`` may return (args, kwargs, attrs) to adjust the
        call; ``after(result, span, kwargs)`` adds counters from the result.
        """
        func = getattr(module, attr)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            attrs: dict = {}
            if before is not None:
                args, kwargs, attrs = before(args, kwargs)
            span = self.open(name, attrs)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result, span, kwargs)
            return result

        setattr(module, attr, traced)


def install_tracing(rec: SpanRecorder) -> None:
    from irasim import _kernels, cli, harness

    def trace_users(result, span, kwargs):
        span["attrs"]["users"] = int(result.n_users)

    def sweep_args(args, kwargs):
        # (rep_start, rep_owner, user_ptr, ..., n_steps at index 6, ...)
        attrs = {
            "replicas": int(args[0].shape[0]),
            "users": int(args[2].shape[0]) - 1,
            "steps": int(args[6]),
        }
        return args, kwargs, attrs

    def floor_diagnostics(args, kwargs):
        if kwargs.get("diagnostics") is None:
            kwargs = dict(kwargs, diagnostics={})
        return args, kwargs, {}

    def floor_terms(result, span, kwargs):
        span["attrs"]["m_terms"] = int(kwargs["diagnostics"].get("m_terms", 0))

    rec.wrap(harness, "generate_trace", "traffic.generate_trace", after=trace_users)
    rec.wrap(harness, "run_sic_kernel", "receiver.run_sic_kernel")
    rec.wrap(_kernels, "sic_sweep", "kernels.sic_sweep", before=sweep_args)
    rec.wrap(harness, "plr_floor", "errorfloor.plr_floor", before=floor_diagnostics, after=floor_terms)
    rec.wrap(cli, "count_configurations", "errorfloor.count_configurations")
    rec.wrap(cli, "parse_config_file", "cli.parse_config_file")


def run_commands(commands: list[list[str]], trace: bool) -> dict:
    from irasim import cli

    rec = SpanRecorder()
    if trace:
        install_tracing(rec)
    codes = []
    error = None
    t0 = time.perf_counter()
    for argv in commands:
        span = rec.open("cli.command", {"argv": argv}) if trace else None
        try:
            codes.append(cli.main(argv))
        except Exception:  # the benchmark counts it as a failed operation
            error = traceback.format_exc()
            codes.append(None)
        finally:
            if span is not None:
                rec.close(span)
        if error is not None:
            break
    wall = time.perf_counter() - t0
    return {
        "codes": codes,
        "error": error,
        "command_s": wall,
        "spans": rec.spans,
    }


def setup(config_paths: list[str]) -> None:
    from irasim import _kernels
    from irasim.harness import parse_config_file

    cfgs = [parse_config_file(p) for p in config_paths]
    if _kernels.NUMBA_ENABLED:
        from irasim.receiver import run_sic_kernel
        from irasim.traffic import generate_trace
        import numpy as np

        c = cfgs[0]
        trace = generate_trace(c.system, c.distribution, 0.1, 2 * c.system.window_length,
                               np.random.default_rng(0))
        run_sic_kernel(trace, c.system)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commands")
    ap.add_argument("--result")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup", nargs="+", metavar="CFG")
    args = ap.parse_args(argv)
    if args.setup:
        setup(args.setup)
        return 0
    with open(args.commands, encoding="utf-8") as fh:
        commands = json.load(fh)
    result = run_commands(commands, args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["error"] is None and all(c == 0 for c in result["codes"]) else 1


if __name__ == "__main__":
    sys.exit(main())
