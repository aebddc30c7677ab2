#!/usr/bin/env python3
"""Boundary mutants of the receiver, run against its differential tests.

Every result of the receiver rests on exact float comparisons at window and
overlap edges. This script swaps ``<`` with ``<=`` or ``>`` with ``>=`` at
one single-operator comparison at a time in the functions of ``TARGETS``,
writes each mutant into a temporary copy of ``src/`` and runs ``TESTS``
against it with ``pytest -x``. A mutant is killed when the tests fail (or
run past the timeout); otherwise it survives. The working tree is never
edited: the tests run from the repository with the copy first on
``PYTHONPATH``, and write no cache or bytecode.

``SURVIVORS`` lists each accepted survivor with the reason it is accepted.
A mutant is keyed by its module, function and comparison text, with
``#n`` appended to the n-th repeat of a text within one function. The
script prints every mutant and the score, and exits non-zero when a
mutant survives that the table does not list, or when a table entry names
no surviving mutant (its comparison is gone, or now killed).

Usage, from the repository root (one pytest process at a time)::

    python3 benchmarks/mutants.py
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TARGETS = {
    "irasim/_kernels.py": ("avg_mi", "sweep"),
    "irasim/receiver.py": ("peel", "sweep_inputs", "_fatal_radius"),
}

TESTS = (
    "tests/test_receiver.py",
    "tests/test_peel.py",
    "tests/test_fatal_skip.py",
    "tests/test_kernel_digests.py",
)

SWAP = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}

#: Accepted survivors: the key of the mutated comparison, and why no test
#: can or need kill its mutant. "Equivalent": every input gives the same
#: outputs. "Speed": the outputs stay bit-identical, only the work changes.
SURVIVORS = {
    "_kernels.avg_mi: j < i":
        "Equivalent: j == i is skipped above it.",
    "_kernels.avg_mi: ev_a[ia] <= ev_b[ib]":
        "Equivalent: events at one point add no segment among themselves and leave the same run; "
        "an end cannot be last with a start still due, as every pair has a < b.",
    "_kernels.avg_mi: x > prev":
        "Equivalent: at x == prev it adds 0.0 to a non-negative sum.",
    "_kernels.avg_mi: prev < s_end":
        "Equivalent: at prev == s_end it adds 0.0 to a non-negative sum.",
    "_kernels.sweep: step < n_steps":
        "Equivalent: the grid ends two steps past the last expiry, so the loop always leaves through its "
        "n_done break before step n_steps.",
    "_kernels.sweep: hi - lo > 1":
        "Equivalent, slower: a fatal range of one holds only the replica itself, so the count is 0 either way.",
    "_kernels.sweep: lo >= admit":
        "Equivalent: at lo == admit the scan's upper end is clipped to admit, so the range is empty.",
    "_kernels.sweep: hi > admit":
        "Equivalent: at hi == admit the clip assigns the value hi already has.",
    "_kernels.sweep: n_done >= n_user":
        "Speed: without the early break the sweep visits the remaining steps, where every replica is inactive.",
    "_kernels.sweep: trail >= n_user":
        "Equivalent: trail reaches n_user only once every user is classified, and the n_done break comes first.",
    "_kernels.sweep: vf_end[trail] >= w + 2.0 * step_len":
        "Speed: at equality the sweep does not jump, and visiting the skipped steps is exact.",
    "_kernels.sweep: rep_start[admit] + 1.0 > w_end + 2.0 * step_len":
        "Speed: at equality the sweep jumps, and the target is still a lower bound by its one-step margin.",
    "_kernels.sweep: trail < n_user #2":
        "Equivalent: trail == n_user cannot reach the jump, as the n_done break comes first.",
    "_kernels.sweep: k < nxt":
        "Equivalent: at k == nxt it assigns the value nxt already has.",
    "_kernels.sweep: nxt > step":
        "Equivalent: at nxt == step it assigns the value step already has.",
    "receiver._fatal_radius: phi > 0.0":
        "Equivalent: at phi == 0 the margin is 0, below 2 * err > 0, so the test stays off.",
    "receiver._fatal_radius: m0 > m1":
        "Equivalent: at m0 == m1 the numpy division makes err infinite, so the test stays off.",
    "receiver._fatal_radius: 2.0 * err < margin":
        "Equivalent: soundness needs margin > err, which margin == 2 * err > 0 still gives.",
    "receiver.peel: mi0 >= geom.rate":
        "Speed: at rate == I0 peel leaves the trace to the sweep, which classifies it the same.",
    "receiver.peel: np.count_nonzero(~tainted) < n_users * _MIN_PEELED_SHARE":
        "Speed: at exactly the minimum share peel leaves the trace to the sweep.",
    "receiver.peel: n_users - np.count_nonzero(tainted) < n_users * _MIN_PEELED_SHARE":
        "Speed: at exactly the minimum share peel leaves the trace to the sweep.",
    "receiver.peel: b < s_end":
        "Equivalent: at b == s_end it adds 0.0 to a non-negative sum.",
    "receiver.peel: expiry[~tainted].max() >= never":
        "Equivalent: searchsorted gives expiry <= never, and the grid ends two steps past the last "
        "vf_end, so expiry == never needs a step below the rounding of w.",
}


class Mutant:
    """One swap: ``op`` is the (old, new) operator of comparison ``node``
    in the file ``path`` under ``src/``."""

    def __init__(self, path: str, key: str, node: ast.Compare, op: tuple[str, str]):
        self.path, self.key, self.node, self.op = path, key, node, op

    def apply(self, source: str) -> str:
        """``source`` with this comparison's operator swapped."""
        data = source.encode("utf-8")  # the node's column offsets count bytes
        lines = data.splitlines(keepends=True)
        left, right = self.node.left, self.node.comparators[0]
        start = sum(map(len, lines[:left.end_lineno - 1])) + left.end_col_offset
        end = sum(map(len, lines[:right.lineno - 1])) + right.col_offset
        gap = data[start:end].decode("utf-8")  # the operator, with blanks and parentheses
        at = gap.index(self.op[0])
        gap = gap[:at] + self.op[1] + gap[at + len(self.op[0]):]
        return data[:start].decode("utf-8") + gap + data[end:].decode("utf-8")


def mutants(src: Path) -> list[Mutant]:
    """Every mutant of ``TARGETS`` in the source tree ``src``."""
    found = []
    for path, funcs in TARGETS.items():
        source = (src / path).read_text(encoding="utf-8")
        defs = {n.name: n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)}
        module = Path(path).stem
        for func in funcs:
            seen: dict[str, int] = {}
            for node in ast.walk(defs[func]):
                if not (isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in SWAP):
                    continue
                text = " ".join(ast.get_source_segment(source, node).split())
                seen[text] = seen.get(text, 0) + 1
                key = f"{module}.{func}: {text}" + (f" #{seen[text]}" if seen[text] > 1 else "")
                found.append(Mutant(path, key, node, SWAP[type(node.ops[0])]))
    found.sort(key=lambda m: (m.path, m.node.lineno, m.node.col_offset))
    return found


def run_tests(src: Path, timeout: float) -> tuple[bool, float]:
    """Whether ``TESTS`` pass against the source tree ``src``, and the
    seconds they took; a run past ``timeout`` counts as failed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - t0
    return proc.returncode == 0, time.perf_counter() - t0


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="irasim-mutants-"))
    try:
        src = work / "src"
        shutil.copytree(ROOT / "src", src)
        env = dict(os.environ, PYTHONPATH=str(src))
        where = subprocess.run([sys.executable, "-c", "import irasim; print(irasim.__file__)"],
                               cwd=ROOT, env=env, capture_output=True, text=True).stdout.strip()
        if not Path(where).is_relative_to(src):
            print(f"the tests would import irasim from {where}, not from the copy", file=sys.stderr)
            return 2
        passed, seconds = run_tests(src, timeout=600.0)
        if not passed:
            print("the tests fail on the unmutated source", file=sys.stderr)
            return 2
        timeout = max(60.0, 5.0 * seconds)
        found = mutants(src)
        survived = []
        for m in found:
            original = (src / m.path).read_text(encoding="utf-8")
            (src / m.path).write_text(m.apply(original), encoding="utf-8")
            try:
                passed, _ = run_tests(src, timeout)
            finally:
                (src / m.path).write_text(original, encoding="utf-8")
            status = "killed"
            if passed:
                survived.append(m.key)
                status = "accepted" if m.key in SURVIVORS else "SURVIVED"
            print(f"{status:8} {m.key}  ->  {m.op[1]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    new = [k for k in survived if k not in SURVIVORS]
    stale = [k for k in SURVIVORS if k not in survived]
    killed = len(found) - len(survived)
    print(f"score: {killed} of {len(found)} mutants killed ({killed / len(found):.0%}); "
          f"{len(survived) - len(new)} accepted survivors, {len(new)} not in the table, "
          f"{len(stale)} table entries that name no survivor")
    for k in stale:
        print(f"STALE    {k}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
