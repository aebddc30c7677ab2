"""The grid's batch schedule: with any worker count a sweep reduces the same
batches, runs no more than it reduces where the expected users cover each
point, and keeps at most ``jobs`` batches unreduced."""

import io
import math
import multiprocessing
from concurrent.futures import Executor
from pathlib import Path

import pytest

from irasim import cli, harness
from irasim.harness import ExperimentConfig, expected_batch_users, parse_config_file, point_seed, sweep
from irasim.model import DegreeDistribution, SystemConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Batches started in this process and in the pool workers it forks; created
# before any pool, so every worker inherits it.
_STARTED = multiprocessing.Value("i", 0)
_simulate_batch = harness._simulate_batch


def _counted_batch(*args, **kwargs):
    with _STARTED.get_lock():
        _STARTED.value += 1
    return _simulate_batch(*args, **kwargs)


@pytest.fixture()
def started(monkeypatch):
    """Count every batch a sweep starts, in whichever process it runs."""
    monkeypatch.setattr(harness, "_simulate_batch", _counted_batch)
    _STARTED.value = 0
    return _STARTED


def csv_bytes(curve) -> bytes:
    buf = io.StringIO()
    curve.to_csv(buf)
    return buf.getvalue().encode()


def small_system_cfg(loads, min_users, max_lost_events=10**9, seed=31) -> ExperimentConfig:
    return ExperimentConfig(
        system=SystemConfig.from_db(6.0, 1.5, 20.0),
        distribution=DegreeDistribution.regular(2),
        load_grid=loads,
        min_users_per_point=min_users,
        max_lost_events=max_lost_events,
        seed=seed,
    )


def _shortfall_loads(k_values, min_users, system):
    # loads at which ``min_users`` sits 0.1% above, or 0.1% below, the
    # expected users of k batches
    per_load = expected_batch_users(system, 1.0)
    return tuple(sorted(min_users / (f * k * per_load) for k in k_values for f in (1.001, 0.999)))


SHORTFALL = small_system_cfg(
    _shortfall_loads((12, 10, 8, 7, 6, 5), 10_000, SystemConfig.from_db(6.0, 1.5, 20.0)), 10_000
)
SHORTFALL_POINTS = [(g, point_seed(SHORTFALL.seed, i)) for i, g in enumerate(SHORTFALL.load_grid)]


def test_expected_batch_users_is_the_mean_count():
    # the schedule's prediction: 60 batches at load 0.2 count 60 * 796
    # users on average, with a Poisson spread of about 219
    cfg = small_system_cfg((0.2,), 10_000)
    counted = sum(
        harness._simulate_batch(cfg.system, cfg.distribution, 0.2, 5, b).users for b in range(60)
    )
    mean = 60 * expected_batch_users(cfg.system, 0.2)
    assert abs(counted - mean) < 4 * math.sqrt(mean)


def test_no_discarded_batch_on_the_paper_grid(started):
    # five loads of ira2_tf200_r15 at 20k users: 24 batches are reduced, and
    # every worker count runs exactly those
    cfg = parse_config_file(CONFIGS / "ira2_tf200_r15.cfg")._replace(min_users_per_point=20_000)
    outputs = []
    for jobs in (1, 2, 3):
        started.value = 0
        outputs.append(csv_bytes(sweep(cfg, jobs=jobs)))
        assert started.value == 24, f"jobs {jobs} ran {started.value} batches for 24 reduced"
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_shortfall_grid_is_worker_count_invariant(monkeypatch):
    # a point whose expected batches cover min_users only just, or only just
    # not, often needs one batch more, or one fewer, than they predict
    reduced = []

    def recording_batch(system, dist, load, seed, batch_index, collect=False):
        reduced.append(load)
        return _simulate_batch(system, dist, load, seed, batch_index, collect)

    monkeypatch.setattr(harness, "_simulate_batch", recording_batch)
    want = csv_bytes(sweep(SHORTFALL, jobs=1))
    need = SHORTFALL.min_users_per_point
    surplus = [reduced.count(g) - math.ceil(need / expected_batch_users(SHORTFALL.system, g))
               for g in SHORTFALL.load_grid]
    assert min(surplus) < 0 < max(surplus)
    # a closure cannot be sent to a pool worker
    monkeypatch.setattr(harness, "_simulate_batch", _simulate_batch)
    for jobs in (2, 3):
        assert csv_bytes(sweep(SHORTFALL, jobs=jobs)) == want


def test_lost_event_stop_on_the_first_point(monkeypatch):
    # the first point stops on max_lost_events long before min_users, with
    # every slot busy on it; a lower early-stop floor keeps the run short
    monkeypatch.setattr(harness, "MIN_USERS_FOR_EARLY_STOP", 20_000)
    cfg = small_system_cfg((0.3, 0.35), 10**6, max_lost_events=50, seed=99)
    rows = [sweep(cfg, jobs=jobs).rows for jobs in (1, 2, 3)]
    first = rows[0][0]
    assert 20_000 <= first.users < cfg.min_users_per_point and first.lost >= 50
    assert rows[1] == rows[0] and rows[2] == rows[0]


class _Tracked:
    """A future that leaves the live set when it is read or cancelled."""

    def __init__(self, future, live):
        self.future = future
        self.live = live

    def result(self):
        self.live.discard(self)
        return self.future.result()

    def cancel(self):
        self.live.discard(self)
        return self.future.cancel()


class _SlotCheckingExecutor(Executor):
    """Runs batches inline and fails when more than ``jobs`` are unreduced."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.live = set()
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        assert len(self.live) < max(self.jobs, 1), "a batch was submitted with every slot taken"
        tracked = _Tracked(harness._InlineExecutor().submit(fn, *args, **kwargs), self.live)
        self.live.add(tracked)
        self.submitted += 1
        return tracked


@pytest.fixture(scope="module")
def shortfall_reduced():
    """The shortfall grid's totals and its reduced batch count."""
    executor = _SlotCheckingExecutor(1)
    return harness._run_grid(SHORTFALL, SHORTFALL_POINTS, executor, 1, None), executor.submitted


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_at_most_jobs_batches_unreduced(jobs, shortfall_reduced):
    want, reduced = shortfall_reduced
    executor = _SlotCheckingExecutor(jobs)
    assert harness._run_grid(SHORTFALL, SHORTFALL_POINTS, executor, jobs, None) == want
    assert not executor.live
    # a point's stop can leave at most the other jobs - 1 slots' batches unread
    assert reduced <= executor.submitted <= reduced + len(want) * (jobs - 1)


@pytest.mark.parametrize(
    "config,row",
    [
        ("ira2_tf200_r15", "x 0,171,0,0 2 1"),
        ("ira2_tf200_r15", f"x 0,2,0,0 2 {10**400}"),
        ("irr1_tf200_r15", "x 0,170,0,0 2 1"),
    ],
    ids=["171-users", "huge-iso-count", "170-users-in-the-mixture"],
)
@pytest.mark.parametrize("jobs", [1, 2])
def test_floor_overflow_ends_the_sweep_before_the_first_batch(tmp_path, started, config, row, jobs, capsys):
    # 171! and 10**400 are no floats, and 170 users overflow once the
    # mixture reaches m = 171, which irr1 does at G = 0.75 only; every
    # load's floor is computed before the grid, so no batch runs for a floor
    # that cannot be computed
    cfg = tmp_path / "c.cfg"
    text = (CONFIGS / f"{config}.cfg").read_text()
    cfg.write_text(text.replace("min_users_per_point = 200000", "min_users_per_point = 10000"))
    catalog = tmp_path / "cat.txt"
    catalog.write_text(row + "\n")
    argv = ["sweep", str(cfg), "--jobs", str(jobs), "--catalog", str(catalog), "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 3
    assert "float64 range" in capsys.readouterr().err
    assert started.value == 0
    assert not (tmp_path / "s.csv").exists()


SHORT_CONFIG = """\
snr_db = 6.0
rate = 1.5
vf_span = 20
degree = 2 1.0
load_grid = 0.2 1e6
min_users_per_point = 10000
"""


@pytest.mark.parametrize("jobs", [1, 2])
def test_trace_cap_ends_the_sweep_before_the_first_batch(tmp_path, started, jobs, capsys):
    # a batch at load 1e6 would hold about 4e9 users, past the trace cap;
    # every load's trace is checked before the grid, and before the floor,
    # whose mixture at that load would end in exit 3
    cfg = tmp_path / "short.cfg"
    cfg.write_text(SHORT_CONFIG)
    argv = ["sweep", str(cfg), "--jobs", str(jobs), "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 2
    assert "users" in capsys.readouterr().err
    assert started.value == 0
    assert not (tmp_path / "s.csv").exists()
