"""Experiment orchestration: seeded Monte Carlo sweeps over load grids,
packet-loss estimates with confidence intervals, and the analytic floor on
the same grid.

Determinism contract: a sweep with a given config and seed produces a
byte-identical result file regardless of worker count. Batch ``b`` of load
point ``i`` draws from ``SeedSequence(entropy=point_seed, spawn_key=(b,))``
where ``point_seed = SeedSequence(entropy=config.seed, spawn_key=(i,))``
folded to 64 bits, and batch results are reduced strictly in batch order.

The whole grid is one batch schedule with ``max(jobs, 1)`` slots. A batch
holds a slot from its submission until it is reduced. Batches are reduced
strictly in (point, batch) order, and after every reduced batch the stop rule
of the current point is tested: at least ``min_users_per_point`` counted
users, or ``max_lost_events`` losses over at least
``MIN_USERS_FOR_EARLY_STOP`` users. Once it holds, what is left of that point
in flight is cancelled and the next point becomes current.

A free slot goes to the earliest point, from the current one on, whose
counted users plus ``expected_batch_users`` for each of its submitted but
unreduced batches fall short of ``min_users_per_point``; if no point does,
the slot stays free. So once the batches in flight are expected to cover the
current point, the next point's first batches start, and nothing is
submitted past what a point is expected to need. With ``jobs > 1`` one
process pool serves the whole sweep; with ``jobs <= 1`` the single slot runs
each batch inline, in the calling thread, so exactly the reduced batches run.

The schedule decides only when a batch runs, never which batches are
reduced: each point reduces the shortest prefix of its batch stream that
meets the stop rule, and the batches are seeded by index. So the result, the
outcome dump included, is the same for every worker count.
"""

from __future__ import annotations

import math
import sys
from collections import deque

from .errorfloor import CollisionPattern, FloorParams, floor_params, plr_floor
from .model import DegreeDistribution, ModelError, SystemConfig, _Record, validate_config

# ``Executor`` and ``Future`` below name concurrent.futures types, imported
# only where an executor is built

#: Virtual frames of usable span per Monte Carlo batch; the window-length
#: margins added on both sides keep the edge exclusion under a few percent.
BATCH_VF_COUNT = 200

#: Hard floor on simulated users before the lost-event early stop may fire.
MIN_USERS_FOR_EARLY_STOP = 100_000

#: Cap on the batches a load point is expected to need for
#: ``min_users_per_point``; a tiny load would otherwise draw millions of
#: nearly empty batches. The largest expectation in the shipped configs, the
#: tests and the benchmark is under 840 batches.
MAX_EXPECTED_BATCHES = 100_000

#: Cap on the window steps of one batch's grid. Its length is at most
#: ``(BATCH_VF_COUNT + 1 + 3 * window_span) / window_step + 3`` steps: the
#: arrivals span the batch's frames and a window on each side, and the grid
#: runs from a window before the first arrival to a frame after the last.
#: The shipped configs need about 2,100.
MAX_BATCH_STEPS = 10**6

#: Cap on ``jobs``. A process pool forks all its workers at the first
#: submission, so the cap bounds the processes one sweep can start. The
#: largest value the tests and the benchmark use is 8.
MAX_JOBS = 256


class ConfigError(ValueError):
    pass


def expected_batch_users(system: SystemConfig, load: float) -> float:
    """Mean number of users one batch counts: the Poisson arrivals of the
    interior interval of ``_simulate_batch``, ``(BATCH_VF_COUNT - 1)``
    frames long."""
    return load * (BATCH_VF_COUNT - 1) * system.vf_span


class ExperimentConfig(_Record):
    system: SystemConfig
    distribution: DegreeDistribution
    load_grid: tuple[float, ...]
    min_users_per_point: int = 100_000
    max_lost_events: int = 1_000
    seed: int = 1
    outputs: str = "results/run"

    def __post_init__(self) -> None:
        object.__setattr__(self, "load_grid", tuple(float(g) for g in self.load_grid))
        if not self.load_grid:
            raise ConfigError("load grid is empty")
        for g in self.load_grid:
            if not (math.isfinite(g) and g > 0):
                raise ConfigError(f"loads must be finite and strictly positive, got {g}")
            # compared, not divided, so that no integer overflows a float
            per_batch = expected_batch_users(self.system, g)
            if self.min_users_per_point > MAX_EXPECTED_BATCHES * per_batch:
                raise ConfigError(
                    f"load {g} draws about {per_batch:.3g} users per batch, "
                    f"too few for {self.min_users_per_point} users in {MAX_EXPECTED_BATCHES} batches"
                )
        span, step = self.system.window_span, self.system.window_step
        if BATCH_VF_COUNT + 1 + 3 * span > (MAX_BATCH_STEPS - 3) * step:  # compared, not divided
            raise ConfigError(
                f"window_step {step:g} gives a batch more than {MAX_BATCH_STEPS} window steps"
            )
        if list(self.load_grid) != sorted(self.load_grid):
            raise ConfigError("load grid must be sorted ascending")
        if self.min_users_per_point < 10_000:
            raise ConfigError("min_users_per_point must be at least 10000")
        if self.max_lost_events < 1:
            raise ConfigError("max_lost_events must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        validate_config(self.system, self.distribution)


class PlrRow(_Record):
    load: float
    users: int
    lost: int
    plr_sim: float
    ci_lo: float
    ci_hi: float
    plr_analytic: float


class PlrCurve(_Record):
    rows: tuple[PlrRow, ...]
    params: FloorParams

    CSV_HEADER = "load,users,lost,plr,ci_lo,ci_hi,plr_floor"

    def to_csv(self, stream) -> None:
        stream.write(
            f"# phi={self.params.phi:.6f} n_v={self.params.n_v} n_p={self.params.n_p:g}\n"
        )
        stream.write(self.CSV_HEADER + "\n")
        for r in self.rows:
            if math.isnan(r.plr_sim):  # a floor-only row, from :func:`predict`
                stream.write(f"{r.load:g},,,,,,{r.plr_analytic:.6e}\n")
            else:
                stream.write(
                    f"{r.load:g},{r.users},{r.lost},{r.plr_sim:.6e},"
                    f"{r.ci_lo:.6e},{r.ci_hi:.6e},{r.plr_analytic:.6e}\n"
                )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            self.to_csv(fh)


def wilson_interval(lost: int, total: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a loss proportion; robust near zero counts."""
    if total <= 0:
        raise ValueError("interval needs at least one trial")
    from statistics import NormalDist

    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = lost / total
    z2n = z * z / total
    denom = 1.0 + z2n
    centre = (phat + z2n / 2.0) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / total + z2n / (4.0 * total)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def point_seed(master_seed: int, point_index: int) -> int:
    """Derive the 64-bit seed of one load point from the master seed."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(point_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# The simulation layers are imported on first use, so that the analytic
# commands load no numpy. ``_simulate_batch`` looks these two names up in
# this module on every call, where a caller may wrap them.


def generate_trace(cfg, dist, load, horizon, rng):
    """:func:`irasim.traffic.generate_trace`."""
    from .traffic import generate_trace

    return generate_trace(cfg, dist, load, horizon, rng)


def run_sic_kernel(trace, cfg):
    """:func:`irasim.receiver.run_sic_kernel`."""
    from .receiver import run_sic_kernel

    return run_sic_kernel(trace, cfg)


def _batch_horizon(system: SystemConfig) -> float:
    """The span of one batch's trace: ``BATCH_VF_COUNT`` frames and a window
    on each side."""
    return BATCH_VF_COUNT * system.vf_span + 2.0 * system.window_length


class BatchResult(_Record):
    users: int
    lost: int
    n_trace_users: int
    outcome_rows: tuple[tuple[int, int, str, float], ...] = ()


def _simulate_batch(
    system: SystemConfig,
    dist: DegreeDistribution,
    load: float,
    seed: int,
    batch_index: int,
    collect_outcomes: bool = False,
) -> BatchResult:
    """One independent trace: generate, run the receiver, count interior users.

    Only users whose virtual frame lies fully inside the window-length margins
    are counted, so window warm-up at the trace edges cannot bias the loss
    rate. Edge users still act as interference.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    margin = system.window_length
    horizon = _batch_horizon(system)
    trace = generate_trace(system, dist, load, horizon, rng)
    decoded, decided_w = run_sic_kernel(trace, system)
    interior = (trace.arrival >= margin) & (trace.arrival + system.vf_span <= horizon - margin)
    users = int(interior.sum())
    lost = int((interior & ~decoded).sum())
    rows: tuple = ()
    if collect_outcomes:
        rows = tuple(
            (
                int(u),
                int(trace.degree[u]),
                "decoded" if decoded[u] else "lost",
                float(decided_w[u]),
            )
            for u in np.nonzero(interior)[0]
        )
    return BatchResult(
        users=users,
        lost=lost,
        n_trace_users=trace.n_users,
        outcome_rows=rows,
    )


class _InlineExecutor:
    """Runs each batch at submission in the calling thread, so ``jobs <= 1``
    starts no process and no thread. It has the part of the ``Executor``
    interface that :func:`_run_grid` uses, so that the analytic commands
    need not import concurrent.futures."""

    def __enter__(self) -> "_InlineExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def submit(self, fn, /, *args, **kwargs) -> Future:
        from concurrent.futures import Future

        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def _batch_executor(jobs: int) -> Executor:
    if jobs > MAX_JOBS:
        raise ConfigError(f"jobs must be at most {MAX_JOBS}, got {jobs}")
    if jobs <= 1:
        return _InlineExecutor()
    # loaded here, as only a --jobs N sweep needs it
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs)


def _run_grid(
    cfg: ExperimentConfig,
    points: list[tuple[float, int]],
    executor: Executor,
    jobs: int,
    outcome_sink,
) -> list[tuple[int, int]]:
    """The batch schedule of a load grid (see the module docstring).

    ``points`` lists ``(load, seed)`` pairs; returns ``(users, lost)`` for
    each, in grid order.
    """
    collect = outcome_sink is not None
    expected = [expected_batch_users(cfg.system, load) for load, _ in points]
    queues: list[deque[Future]] = [deque() for _ in points]
    next_batch = [0] * len(points)
    unreduced = 0
    totals = []
    for cur in range(len(points)):
        users = lost = id_offset = 0
        while True:
            # until the stop rule holds, users < min_users_per_point, so
            # point ``cur`` always qualifies when nothing of it is in flight
            p = cur
            while unreduced < max(jobs, 1) and p < len(points):
                counted = users if p == cur else 0
                if counted + expected[p] * len(queues[p]) < cfg.min_users_per_point:
                    load, seed = points[p]
                    queues[p].append(
                        executor.submit(
                            _simulate_batch, cfg.system, cfg.distribution, load, seed, next_batch[p], collect
                        )
                    )
                    next_batch[p] += 1
                    unreduced += 1
                else:
                    p += 1
            result = queues[cur].popleft().result()
            unreduced -= 1
            users += result.users
            lost += result.lost
            if collect:
                for uid, deg, outcome, w in result.outcome_rows:
                    outcome_sink.write(f"{id_offset + uid},{deg},{outcome},{w:.12g}\n")
            id_offset += result.n_trace_users
            if users >= cfg.min_users_per_point or (
                lost >= cfg.max_lost_events and users >= MIN_USERS_FOR_EARLY_STOP
            ):
                break
        for future in queues[cur]:
            future.cancel()
        unreduced -= len(queues[cur])
        queues[cur].clear()
        totals.append((users, lost))
    return totals


def sweep(
    cfg: ExperimentConfig,
    *,
    jobs: int = 1,
    catalog: tuple[CollisionPattern, ...] | None = None,
    outcome_sink=None,
) -> PlrCurve:
    """:func:`predict`'s rows with every grid load simulated.

    Before the first batch come each load's trace checks, then ``jobs``'s
    cap, then the floor, so a config error (exit 2) precedes a floor guard
    (exit 3) and neither starts a batch. ``outcome_sink`` receives each
    point's per-user outcome lines in grid order; user ids restart at 0 for
    every point.
    """
    # receiver loads traffic and _kernels too; pool workers forked below inherit them
    from . import receiver  # noqa: F401
    from .traffic import check_trace

    horizon = _batch_horizon(cfg.system)
    for g in cfg.load_grid:
        check_trace(cfg.system, cfg.distribution, g, horizon)
    points = [(g, point_seed(cfg.seed, i)) for i, g in enumerate(cfg.load_grid)]
    # a pool forks its workers at the first submission, after the floors
    with _batch_executor(jobs) as executor:
        floor = predict(cfg, catalog)
        totals = _run_grid(cfg, points, executor, jobs, outcome_sink)
    rows = []
    for row, (users, lost) in zip(floor.rows, totals):
        lo, hi = wilson_interval(lost, users, 0.95)
        rows.append(row._replace(users=users, lost=lost, plr_sim=lost / users, ci_lo=lo, ci_hi=hi))
    return PlrCurve(rows=tuple(rows), params=floor.params)


def predict(
    cfg: ExperimentConfig,
    catalog: tuple[CollisionPattern, ...] | None = None,
) -> PlrCurve:
    """Analytic floor only, one row per grid load."""
    params = floor_params(cfg.system)
    if params.phi == 0.0:
        print(
            "warning: one interferer can never kill a packet at this rate; "
            "the predicted floor is identically zero",
            file=sys.stderr,
        )
    rows = []
    for g in cfg.load_grid:
        analytic = plr_floor(g, cfg.system, cfg.distribution, catalog)
        rows.append(
            PlrRow(load=g, users=0, lost=0, plr_sim=math.nan, ci_lo=math.nan, ci_hi=math.nan, plr_analytic=analytic)
        )
    return PlrCurve(rows=tuple(rows), params=params)


# -- flat key/value config files ----------------------------------------------

_REQUIRED_KEYS = ("snr_db", "rate", "vf_span")

#: Scalar keys of :meth:`SystemConfig.from_db`, then of :class:`ExperimentConfig`,
#: with their types; a key a file leaves out takes the record's default.
_SYSTEM_KEYS = {"snr_db": float, "rate": float, "vf_span": float, "window_span": float, "window_step": float}
_SCALAR_KEYS = {**_SYSTEM_KEYS, "min_users_per_point": int, "max_lost_events": int, "seed": int, "outputs": str}

_CONFIG_KEYS = {*_SCALAR_KEYS, "degree", "load_grid"}


def _config_lines(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def parse_config_file(path) -> ExperimentConfig:
    """Read an experiment config.

    The format is one ``key = value`` pair per line, ``#`` starts a comment.
    ``degree`` lines repeat, one per distribution entry, as
    ``degree = <d> <probability>``; ``load_grid`` is a space-separated list.
    Unknown keys are rejected. Every malformed input, unreadable or
    non-UTF-8 files included, raises :class:`ConfigError`.
    """
    scalars: dict[str, float | int | str] = {}
    degree_pairs: list[tuple[int, float]] = []
    loads: list[float] | None = None
    for lineno, raw in enumerate(_config_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in scalars or (key == "load_grid" and loads is not None):
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
        try:
            if key == "degree":
                d_s, p_s = value.split()
                degree_pairs.append((int(d_s), float(p_s)))
            elif key == "load_grid":
                loads = [float(x) for x in value.replace(",", " ").split()]
            else:
                scalars[key] = _SCALAR_KEYS[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc

    for key in _REQUIRED_KEYS:
        if key not in scalars:
            raise ConfigError(f"{path}: missing required key {key!r}")
    if not degree_pairs:
        raise ConfigError(f"{path}: at least one 'degree = <d> <prob>' line is required")

    try:
        system = SystemConfig.from_db(**{k: v for k, v in scalars.items() if k in _SYSTEM_KEYS})
        dist = DegreeDistribution.from_pairs(degree_pairs)
        loads = (0.1,) if loads is None else tuple(loads)
        return ExperimentConfig(system, dist, loads, **{k: v for k, v in scalars.items() if k not in _SYSTEM_KEYS})
    except ModelError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
