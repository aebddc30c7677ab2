"""Experiment orchestration: seeded Monte Carlo sweeps over load grids,
packet-loss estimates with confidence intervals, and the analytic floor on
the same grid.

Determinism contract: a sweep with a given config and seed produces a
byte-identical result file regardless of worker count. Batch ``b`` of load
point ``i`` draws from ``SeedSequence(entropy=point_seed, spawn_key=(b,))``
where ``point_seed = SeedSequence(entropy=config.seed, spawn_key=(i,))``
folded to 64 bits, and batch results are reduced strictly in batch order.

Each load point is one ordered stream of batches. With ``jobs > 1``, one
process pool serves the whole sweep and keeps ``jobs`` batches of the
current point in flight; with ``jobs <= 1`` each batch runs inline, in the
calling thread. After every reduced batch the stop rule is tested: at least
``min_users_per_point`` counted users, or ``max_lost_events`` losses over at
least ``MIN_USERS_FOR_EARLY_STOP`` users. Once it holds, the batches still in
flight are dropped unread, so the result is the same reduced prefix for
every worker count.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errorfloor import CollisionPattern, FloorParams, floor_params, plr_floor
from .model import DegreeDistribution, ModelError, SystemConfig, validate_config
from .receiver import run_sic_kernel
from .traffic import generate_trace

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


@dataclass(frozen=True)
class ExperimentConfig:
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
        users_per_batch = (BATCH_VF_COUNT - 1) * self.system.vf_span
        for g in self.load_grid:
            if not (math.isfinite(g) and g > 0):
                raise ConfigError(f"loads must be finite and strictly positive, got {g}")
            # compared, not divided, so that no integer overflows a float
            if self.min_users_per_point > MAX_EXPECTED_BATCHES * g * users_per_batch:
                raise ConfigError(
                    f"load {g} draws about {g * users_per_batch:.3g} users per batch, "
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


@dataclass(frozen=True)
class PlrRow:
    load: float
    users: int
    lost: int
    plr_sim: float
    ci_lo: float
    ci_hi: float
    plr_analytic: float


@dataclass(frozen=True)
class PlrCurve:
    rows: tuple[PlrRow, ...]
    params: FloorParams
    analytic_only: bool = False

    CSV_HEADER = "load,users,lost,plr,ci_lo,ci_hi,plr_floor"

    def to_csv(self, stream) -> None:
        stream.write(
            f"# phi={self.params.phi:.6f} n_v={self.params.n_v} n_p={self.params.n_p:g}\n"
        )
        stream.write(self.CSV_HEADER + "\n")
        for r in self.rows:
            if self.analytic_only:
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
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = lost / total
    z2n = z * z / total
    denom = 1.0 + z2n
    centre = (phat + z2n / 2.0) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / total + z2n / (4.0 * total)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def point_seed(master_seed: int, point_index: int) -> int:
    """Derive the 64-bit seed of one load point from the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(point_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class BatchResult:
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
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    margin = system.window_length
    horizon = BATCH_VF_COUNT * system.vf_span + 2.0 * margin
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


class _InlineExecutor(Executor):
    """Runs each batch at submission in the calling thread, so ``jobs <= 1``
    starts no process and no thread."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def _batch_executor(jobs: int) -> Executor:
    if jobs > MAX_JOBS:
        raise ConfigError(f"jobs must be at most {MAX_JOBS}, got {jobs}")
    return ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else _InlineExecutor()


def _run_stream(
    cfg: ExperimentConfig,
    load: float,
    seed: int,
    executor: Executor,
    jobs: int,
    outcome_sink,
) -> tuple[int, int]:
    """The ordered batch stream of one load point (see the module docstring)."""
    users = 0
    lost = 0
    id_offset = 0
    collect = outcome_sink is not None
    in_flight: deque[Future] = deque()
    next_batch = 0
    while True:
        while len(in_flight) < max(jobs, 1):
            in_flight.append(
                executor.submit(
                    _simulate_batch, cfg.system, cfg.distribution, load, seed, next_batch, collect
                )
            )
            next_batch += 1
        result = in_flight.popleft().result()
        users += result.users
        lost += result.lost
        if collect:
            for uid, deg, outcome, w in result.outcome_rows:
                outcome_sink.write(f"{id_offset + uid},{deg},{outcome},{w:.12g}\n")
        id_offset += result.n_trace_users
        if users >= cfg.min_users_per_point or (
            lost >= cfg.max_lost_events and users >= MIN_USERS_FOR_EARLY_STOP
        ):
            for future in in_flight:
                future.cancel()
            return users, lost


def run_point(
    cfg: ExperimentConfig,
    load: float,
    seed: int,
    *,
    jobs: int = 1,
    outcome_sink=None,
) -> tuple[int, int]:
    """Monte Carlo estimate of one load point.

    Batches run until ``min_users_per_point`` users were counted, or until
    ``max_lost_events`` losses accumulated over at least 10^5 users. The
    result is deterministic in (config, seed) and independent of ``jobs``.
    """
    with _batch_executor(jobs) as executor:
        return _run_stream(cfg, load, seed, executor, jobs, outcome_sink)


def sweep(
    cfg: ExperimentConfig,
    *,
    jobs: int = 1,
    catalog: tuple[CollisionPattern, ...] | None = None,
    outcome_sink=None,
) -> PlrCurve:
    """Simulate every grid load and attach the analytic floor prediction.

    ``outcome_sink`` receives each point's per-user outcome lines in grid
    order; user ids restart at 0 for every point.
    """
    params = floor_params(cfg.system)
    rows = []
    with _batch_executor(jobs) as executor:
        for i, g in enumerate(cfg.load_grid):
            users, lost = _run_stream(cfg, g, point_seed(cfg.seed, i), executor, jobs, outcome_sink)
            plr = lost / users
            lo, hi = wilson_interval(lost, users, 0.95)
            analytic = plr_floor(g, cfg.system, cfg.distribution, catalog)
            rows.append(
                PlrRow(load=g, users=users, lost=lost, plr_sim=plr, ci_lo=lo, ci_hi=hi, plr_analytic=analytic)
            )
    return PlrCurve(rows=tuple(rows), params=params)


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
    return PlrCurve(rows=tuple(rows), params=params, analytic_only=True)


# -- flat key/value config files ----------------------------------------------

_REQUIRED_KEYS = ("snr_db", "rate", "vf_span")

_CONFIG_KEYS = {
    "snr_db",
    "rate",
    "vf_span",
    "window_span",
    "window_step",
    "degree",
    "load_grid",
    "min_users_per_point",
    "max_lost_events",
    "seed",
    "outputs",
}


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
    scalars: dict[str, str] = {}
    degree_pairs: list[tuple[int, float]] = []
    loads: list[float] = []
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
        try:
            if key == "degree":
                d_s, p_s = value.split()
                degree_pairs.append((int(d_s), float(p_s)))
            elif key == "load_grid":
                loads = [float(x) for x in value.replace(",", " ").split()]
            else:
                scalars[key] = value
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc

    for key in _REQUIRED_KEYS:
        if key not in scalars:
            raise ConfigError(f"{path}: missing required key {key!r}")
    if not degree_pairs:
        raise ConfigError(f"{path}: at least one 'degree = <d> <prob>' line is required")

    def number(key: str, kind, default=None):
        value = scalars.get(key, default)
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"{path}: bad value for {key!r}: {value!r}") from None

    try:
        system = SystemConfig.from_db(
            snr_db=number("snr_db", float),
            rate=number("rate", float),
            vf_span=number("vf_span", float),
            window_span=number("window_span", float, 3.0),
            window_step=number("window_step", float, 0.1),
        )
        dist = DegreeDistribution.from_pairs(degree_pairs)
        return ExperimentConfig(
            system=system,
            distribution=dist,
            load_grid=tuple(loads) if loads else (0.1,),
            min_users_per_point=number("min_users_per_point", int, 100_000),
            max_lost_events=number("max_lost_events", int, 1_000),
            seed=number("seed", int, 1),
            outputs=scalars.get("outputs", "results/run"),
        )
    except ModelError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
