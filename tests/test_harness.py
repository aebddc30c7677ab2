import io
import math
import time

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from irasim import cli, errorfloor, harness
from irasim.cli import main as cli_main
from irasim.errorfloor import builtin_catalog, plr_floor
from irasim.harness import (
    MAX_BATCH_STEPS,
    MAX_EXPECTED_BATCHES,
    MAX_JOBS,
    ConfigError,
    ExperimentConfig,
    parse_config_file,
    point_seed,
    predict,
    sweep,
    wilson_interval,
)
from irasim.model import DegreeDistribution, ModelError, SystemConfig
from irasim.traffic import MAX_TRACE_USERS, generate_trace

from oracles import plr_regular, plr_two_user

CONFIG_TEXT = """\
# two-replica scenario on a short frame, sized for fast tests
snr_db = 6.0
rate = 1.5
vf_span = 20
window_span = 3
window_step = 0.1
degree = 2 1.0
load_grid = 0.2 0.3
min_users_per_point = 10000
max_lost_events = 1000000
seed = 99
outputs = results/short
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "short.cfg"
    path.write_text(CONFIG_TEXT)
    return path


@pytest.fixture()
def no_batches(monkeypatch):
    """Fail the test if a Monte Carlo batch starts."""

    def no_batch(*args, **kwargs):
        raise AssertionError("a batch started before the input was rejected")

    monkeypatch.setattr(harness, "_simulate_batch", no_batch)


@pytest.fixture()
def no_pool(monkeypatch):
    """Fail the test if the sweep's executor is a process pool."""
    real = harness._batch_executor

    def executor(jobs):
        ex = real(jobs)
        if not isinstance(ex, harness._InlineExecutor):
            ex.shutdown()
            raise AssertionError("a process pool was started")
        return ex

    monkeypatch.setattr(harness, "_batch_executor", executor)


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} called before the input was rejected")


@pytest.fixture()
def no_draws(monkeypatch):
    """Hand every new generator a stand-in that fails on its first draw."""
    monkeypatch.setattr("numpy.random.default_rng", lambda *args, **kwargs: _NoDraws())


@pytest.fixture(scope="module")
def fast_cfg():
    return ExperimentConfig(
        system=SystemConfig.from_db(6.0, 1.5, 20.0),
        distribution=DegreeDistribution.regular(2),
        load_grid=(0.2, 0.3),
        min_users_per_point=10_000,
        max_lost_events=10**6,
        seed=99,
    )


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(5, 100, 0.95)
        # Wilson score interval for 5/100 at 95%
        assert lo == pytest.approx(0.0215, abs=2e-4)
        assert hi == pytest.approx(0.1118, abs=2e-4)

    def test_bounds_order(self):
        for lost, total in [(0, 50), (1, 10), (10, 10), (3, 10**6)]:
            lo, hi = wilson_interval(lost, total)
            assert 0.0 <= lo <= lost / total <= hi <= 1.0

    def test_needs_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestConfigFile:
    def test_parse_round_trip(self, config_file):
        cfg = parse_config_file(config_file)
        assert cfg.system.snr_db == pytest.approx(6.0)
        assert cfg.system.vf_span == 20.0
        assert cfg.distribution.entries == ((2, 1.0),)
        assert cfg.load_grid == (0.2, 0.3)
        assert cfg.seed == 99
        assert cfg.outputs == "results/short"

    def test_left_out_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.cfg"
        path.write_text("snr_db = 6\nrate = 1.5\nvf_span = 20\ndegree = 2 1.0\n")
        want = ExperimentConfig(SystemConfig.from_db(6.0, 1.5, 20.0), DegreeDistribution.regular(2), (0.1,))
        assert parse_config_file(path) == want

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("snr_db = 6\nrate = 1.5\nvf_span = 20\nbogus = 1\ndegree = 2 1.0\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_missing_distribution(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("snr_db = 6\nrate = 1.5\nvf_span = 20\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_empty_load_grid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                system=SystemConfig.from_db(6.0, 1.5, 20.0),
                distribution=DegreeDistribution.regular(2),
                load_grid=(),
            )

    def test_empty_load_grid_line_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_TEXT.replace("load_grid = 0.2 0.3", "load_grid ="))
        with pytest.raises(ConfigError, match="load grid is empty"):
            parse_config_file(path)
        assert cli_main(["predict", str(path), "--out", str(tmp_path / "f.csv")]) == 2
        assert "load grid is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["rate = 2.0", "rate = 1.5", "load_grid = 0.4", "load_grid =", "seed = 7"])
    def test_repeated_key_rejected(self, tmp_path, line, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_TEXT + line + "\n")
        lineno = CONFIG_TEXT.count("\n") + 1
        where = f"{path}:{lineno}: key {line.split(' =')[0]!r} given twice"
        with pytest.raises(ConfigError) as exc:
            parse_config_file(path)
        assert str(exc.value) == where
        assert cli_main(["predict", str(path), "--out", str(tmp_path / "f.csv")]) == 2
        assert where in capsys.readouterr().err

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                system=SystemConfig.from_db(6.0, 1.5, 20.0),
                distribution=DegreeDistribution.regular(2),
                load_grid=(0.3, 0.2),
            )

    @pytest.mark.parametrize("load", [math.inf, math.nan, -math.inf, 0.0])
    def test_non_finite_or_non_positive_load_rejected(self, load):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                system=SystemConfig.from_db(6.0, 1.5, 20.0),
                distribution=DegreeDistribution.regular(2),
                load_grid=(0.1, load),
            )

    @pytest.mark.parametrize(
        "line",
        ["window_span = inf", "window_span = inf\nwindow_step = inf", "window_span = nan", "load_grid = 0.2 inf"],
    )
    def test_non_finite_config_values_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        text = CONFIG_TEXT.replace("window_span = 3\n", "").replace("window_step = 0.1\n", "")
        path.write_text(text.replace("load_grid = 0.2 0.3\n", "") + line + "\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)
        assert cli_main(["predict", str(path), "--out", str(tmp_path / "floor.csv")]) == 2

    def test_batch_count_cap(self):
        system = SystemConfig.from_db(6.0, 1.5, 20.0)

        def make(load, min_users=10_000):
            return ExperimentConfig(
                system=system,
                distribution=DegreeDistribution.regular(2),
                load_grid=(load,),
                min_users_per_point=min_users,
            )

        # the load at which 10^4 users take MAX_EXPECTED_BATCHES batches
        edge = 10_000 / (MAX_EXPECTED_BATCHES * (harness.BATCH_VF_COUNT - 1) * system.vf_span)
        make(edge * 1.000001)
        for load, min_users in [(edge * 0.999999, 10_000), (1e-9, 10_000), (0.2, 10**12)]:
            with pytest.raises(ConfigError, match="batches"):
                make(load, min_users)

    def test_batch_step_cap(self):
        def make(window_step):
            return ExperimentConfig(
                system=SystemConfig.from_db(6.0, 1.5, 20.0, window_step=window_step),
                distribution=DegreeDistribution.regular(2),
                load_grid=(0.2,),
                min_users_per_point=10_000,
            )

        # the step at which a batch's grid reaches MAX_BATCH_STEPS steps
        edge = (harness.BATCH_VF_COUNT + 1 + 3 * 3.0) / (MAX_BATCH_STEPS - 3)
        make(edge * 1.000001)
        for step in (edge * 0.999999, 1e-15, 5e-324):
            with pytest.raises(ConfigError, match="window steps"):
                make(step)

    def test_min_users_floor(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                system=SystemConfig.from_db(6.0, 1.5, 20.0),
                distribution=DegreeDistribution.regular(2),
                load_grid=(0.1,),
                min_users_per_point=100,
            )


def one_point(cfg, load, **kwargs):
    """``(users, lost)`` of a one-point sweep at ``load``; it draws from
    ``point_seed(cfg.seed, 0)``."""
    row = sweep(cfg._replace(load_grid=(load,)), **kwargs).rows[0]
    return row.users, row.lost


class TestRunPoint:
    def test_deterministic(self, fast_cfg):
        assert one_point(fast_cfg, 0.2) == one_point(fast_cfg, 0.2)

    def test_worker_count_invariant(self, fast_cfg):
        assert one_point(fast_cfg, 0.2, jobs=1) == one_point(fast_cfg, 0.2, jobs=3)

    def test_lost_event_stop_worker_count_invariant(self):
        # the early stop fires a few batches past 10^5 users, in the middle
        # of the batches a pool keeps in flight
        cfg = ExperimentConfig(
            system=SystemConfig.from_db(6.0, 1.5, 20.0),
            distribution=DegreeDistribution.regular(2),
            load_grid=(0.3,),
            min_users_per_point=10**6,
            max_lost_events=50,
            seed=99,
        )
        results = [one_point(cfg, 0.3, jobs=j) for j in (1, 2, 3)]
        assert results == [(101_164, 2_108)] * 3

    def test_inline_without_pool(self, fast_cfg, no_pool):
        assert one_point(fast_cfg, 0.2, jobs=0) == one_point(fast_cfg, 0.2, jobs=1)
        assert len(sweep(fast_cfg, jobs=1).rows) == 2

    def test_one_pool_per_sweep(self, fast_cfg, monkeypatch):
        executors = []
        real = harness._batch_executor

        def counting(jobs):
            executors.append(real(jobs))
            return executors[-1]

        monkeypatch.setattr(harness, "_batch_executor", counting)
        assert sweep(fast_cfg, jobs=2).rows == sweep(fast_cfg, jobs=1).rows
        assert [type(ex).__name__ for ex in executors] == ["ProcessPoolExecutor", "_InlineExecutor"]

    def test_tiny_load_rarely_loses(self):
        cfg = ExperimentConfig(
            system=SystemConfig.from_db(6.0, 1.5, 200.0),
            distribution=DegreeDistribution.regular(2),
            load_grid=(1e-3,),
            min_users_per_point=10_000,
            max_lost_events=10**6,
            seed=1,
        )
        users, lost = one_point(cfg, 1e-3)
        assert users >= 10_000
        assert lost <= 2

    def test_outcome_dump(self, fast_cfg):
        sink = io.StringIO()
        users, lost = one_point(fast_cfg._replace(seed=7), 0.3, outcome_sink=sink)
        lines = sink.getvalue().strip().split("\n")
        assert len(lines) == users
        n_lost = sum(1 for ln in lines if ln.split(",")[2] == "lost")
        assert n_lost == lost
        uid, deg, outcome, w = lines[0].split(",")
        assert outcome in ("decoded", "lost")
        int(uid), int(deg), float(w)

    def test_edge_exclusion_stays_bounded(self, fast_cfg):
        # per batch, the interior filter may drop at most the arrivals of two
        # window-length margins plus one frame; check the expected accounting
        from irasim.harness import BATCH_VF_COUNT, _simulate_batch

        g = 0.3
        excluded = 0
        total = 0
        for b in range(10):
            r = _simulate_batch(fast_cfg.system, fast_cfg.distribution, g, 7, b)
            excluded += r.n_trace_users - r.users
            total += r.n_trace_users
        span = fast_cfg.system.vf_span
        horizon = BATCH_VF_COUNT * span + 2 * fast_cfg.system.window_length
        expected_excluded = g * (2 * fast_cfg.system.window_length + span) * 10
        assert excluded <= 2 * expected_excluded
        assert total >= 10 * g * horizon * 0.8


class TestSweepPredict:
    def test_sweep_rows_and_csv(self, fast_cfg):
        curve = sweep(fast_cfg)
        assert len(curve.rows) == 2
        for row, g in zip(curve.rows, fast_cfg.load_grid):
            assert row.load == g
            assert 0.0 <= row.ci_lo <= row.plr_sim <= row.ci_hi <= 1.0
            assert row.plr_analytic >= 0.0
            assert row.plr_analytic == pytest.approx(
                plr_floor(g, fast_cfg.system, fast_cfg.distribution)
            )
        buf = io.StringIO()
        curve.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0].startswith("# phi=")
        assert lines[1] == "load,users,lost,plr,ci_lo,ci_hi,plr_floor"
        assert len(lines) == 4

    def test_predict_emits_header_and_analytic_only(self, fast_cfg):
        curve = predict(fast_cfg)
        buf = io.StringIO()
        curve.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        phi = float(lines[0].split("phi=")[1].split()[0])
        n_v = int(lines[0].split("n_v=")[1].split()[0])
        assert 0.443 <= phi <= 0.446
        assert n_v == 22  # floor(20 / (2 * 0.4442))
        assert lines[2].split(",")[1] == ""  # no sim columns

    def test_predict_zero_floor_warns(self, capsys):
        cfg = ExperimentConfig(
            system=SystemConfig.from_db(6.0, 0.5, 20.0),
            distribution=DegreeDistribution.regular(2),
            load_grid=(0.1,),
        )
        curve = predict(cfg)
        assert all(r.plr_analytic == 0.0 for r in curve.rows)
        assert "zero" in capsys.readouterr().err

    def test_three_scenarios_header_values(self, cfg_tf200_r15, cfg_tf200_r20, cfg_tf100_r15):
        from irasim.errorfloor import floor_params

        for cfg, want_phi, want_nv in [
            (cfg_tf200_r15, 0.44, 225),
            (cfg_tf200_r20, 0.78, 127),
            (cfg_tf100_r15, 0.44, 112),
        ]:
            fp = floor_params(cfg)
            assert fp.phi == pytest.approx(want_phi, abs=5e-3)
            assert fp.n_v == want_nv


class TestCli:
    def test_predict_command(self, config_file, tmp_path, capsys):
        out = tmp_path / "floor.csv"
        rc = cli_main(["predict", str(config_file), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "load,users,lost,plr,ci_lo,ci_hi,plr_floor"
        assert len(lines) == 4

    def test_sweep_simulate_roundtrip(self, config_file, tmp_path):
        out = tmp_path / "curve.csv"
        rc = cli_main(["sweep", str(config_file), "--out", str(out)])
        assert rc == 0
        assert out.read_text().count("\n") == 4

    def test_simulate_prints_row(self, config_file, tmp_path, capsys):
        out = tmp_path / "row.csv"
        rc = cli_main(["simulate", str(config_file), "--load", "0.2", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        lines = printed.strip().split("\n")
        assert lines[1] == "load,users,lost,plr,ci_lo,ci_hi,plr_floor"
        assert lines[2].startswith("0.2,")
        assert out.read_text() == printed

    def test_catalog_override_matches_builtin(self, config_file, tmp_path):
        from irasim.errorfloor import builtin_catalog, write_catalog

        cat_file = tmp_path / "cat.txt"
        write_catalog(cat_file, builtin_catalog())
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli_main(["predict", str(config_file), "--out", str(out_a)]) == 0
        assert (
            cli_main(
                ["predict", str(config_file), "--catalog", str(cat_file), "--out", str(out_b)]
            )
            == 0
        )
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("command", ["predict", "sweep"])
    def test_catalog_degree_above_num_sets(self, command, tmp_path, no_batches, capsys):
        # n_v = 2 here; a row whose degree-3 users share 2 periods once
        # divided by a zero placement count
        cfg = tmp_path / "short.cfg"
        cfg.write_text("snr_db = 6\nrate = 1.8\nvf_span = 3\ndegree = 3 1.0\nmin_users_per_point = 10000\n")
        cat = tmp_path / "cat.txt"
        cat.write_text("x 0,0,2 2 1\n")
        rc = cli_main([command, str(cfg), "--catalog", str(cat), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "malformed catalog" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["predict", "sweep"])
    def test_degree_just_above_vf_span(self, command, tmp_path, no_batches, capsys):
        # the frame is a hair shorter than three packets: no tolerance lets
        # the degree-3 users fit, so predict rejects it as sweep does
        cfg = tmp_path / "short.cfg"
        cfg.write_text(CONFIG_TEXT.replace("vf_span = 20", "vf_span = 2.9999999999995")
                       .replace("degree = 2 1.0", "degree = 3 1.0"))
        rc = cli_main([command, str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "cannot fit" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("snr_db = 6\nrate = 1.5\nvf_span = 20\ndegree = 2 0.5\n")
        assert cli_main(["predict", str(bad)]) == 2

    def test_missing_file_exit_code(self):
        assert cli_main(["predict", "/nonexistent/nowhere.cfg"]) == 2

    def test_negative_seed_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG_TEXT.replace("seed = 99", "seed = -1"))
        with pytest.raises(ConfigError):
            parse_config_file(bad)
        assert cli_main(["simulate", str(bad), "--load", "0.2"]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["sweep"], ["simulate", "--load", "0.2"], ["dump-trace", "--load", "0.2", "--horizon", "50"]],
    )
    def test_negative_seed_flag_exit_code(self, config_file, command, capsys):
        argv = [command[0], str(config_file), *command[1:], "--seed", "-1"]
        assert cli_main(argv) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [("-3", "-1"), ("-1", "2"), ("5", "4")])
    def test_verify_ucp_bad_period_bounds(self, bounds, monkeypatch, capsys):
        def no_count(*args):
            raise AssertionError("counting started before the bounds were checked")

        monkeypatch.setattr(cli, "count_configurations", no_count)
        rc = cli_main(["verify-ucp", "--min-periods", bounds[0], "--max-periods", bounds[1]])
        assert rc == 2
        assert "periods" in capsys.readouterr().err

    def test_verify_ucp_max_periods_past_guard(self, monkeypatch, capsys):
        # rejected before the n=10 rows, not by the guard once n=11 is reached
        def no_count(*args):
            raise AssertionError("counting started before the bounds were checked")

        monkeypatch.setattr(cli, "count_configurations", no_count)
        rc = cli_main(["verify-ucp", "--min-periods", "10", "--max-periods", "11"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--max-periods" in err

    def test_verify_ucp_at_guard_edge(self, capsys):
        assert cli_main(["verify-ucp", "--min-periods", "10", "--max-periods", "10"]) == 0
        out = capsys.readouterr().out
        assert out.count(" n=10: ") == len(builtin_catalog())

    @pytest.mark.parametrize("load", ["inf", "nan"])
    def test_simulate_non_finite_load_exit_code(self, config_file, load, no_batches, capsys):
        assert cli_main(["simulate", str(config_file), "--load", load]) == 2
        assert "load" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid,command", [("0.2 0.3", ["simulate", "--load", "1e-9"]), ("1e-9 0.2", ["sweep"])]
    )
    def test_tiny_load_exit_code(self, config_file, grid, command, no_batches, capsys):
        # about 2.5e9 nearly empty batches would be needed for 10^4 users
        config_file.write_text(CONFIG_TEXT.replace("0.2 0.3", grid))
        assert cli_main([command[0], str(config_file), *command[1:]]) == 2
        assert "batches" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate", "--load", "0.05"], ["sweep"], ["predict"]])
    def test_tiny_window_step_exit_code(self, config_file, command, no_batches, capsys):
        # about 2e17 window steps per batch, which no peel or sweep could walk
        config_file.write_text(CONFIG_TEXT.replace("window_step = 0.1", "window_step = 1e-15"))
        assert cli_main([command[0], str(config_file), *command[1:]]) == 2
        assert "window steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--load", "1e6"],
            ["simulate", "--load", "1e6", "--jobs", "2"],
            ["dump-trace", "--load", "1", "--horizon", "1e12"],
        ],
    )
    def test_huge_trace_exit_code(self, config_file, command, no_draws, capsys):
        # simulate: 1e6 arrivals per packet over a 4120-packet batch, 4e9 users
        assert cli_main([command[0], str(config_file), *command[1:]]) == 2
        assert "users" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["sweep"], ["simulate", "--load", "1e-14"], ["dump-trace", "--load", "1e-14", "--horizon", "1e16"]]
    )
    def test_starts_past_2_53_exit_code(self, config_file, command, no_batches, no_draws, capsys):
        # a batch spans 200 frames of 1e14 packets; past 2**53 a start plus
        # one packet rounds back to the start, and no replica overlaps itself
        text = CONFIG_TEXT.replace("vf_span = 20", "vf_span = 1e14").replace("0.2 0.3", "1e-14")
        config_file.write_text(text)
        assert cli_main([command[0], str(config_file), *command[1:]]) == 2
        assert "2**53" in capsys.readouterr().err

    def test_huge_trace_rejected_before_drawing(self):
        cfg = SystemConfig.from_db(6.0, 1.5, 20.0)
        dist = DegreeDistribution.regular(2)
        with pytest.raises(ModelError, match="users"):
            generate_trace(cfg, dist, 1.0, 2.0 * MAX_TRACE_USERS, _NoDraws())

    @pytest.mark.parametrize("load,horizon", [("inf", "50"), ("nan", "50"), ("0.2", "inf")])
    def test_dump_trace_non_finite_exit_code(self, config_file, load, horizon, capsys):
        # generate_trace rejects both before it draws a single arrival
        argv = ["dump-trace", str(config_file), "--load", load, "--horizon", horizon]
        assert cli_main(argv) == 2
        assert "finite" in capsys.readouterr().err

    def test_verify_ucp_mismatch_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "count_configurations", lambda pattern, n: 0)
        assert cli_main(["verify-ucp", "--min-periods", "4", "--max-periods", "4"]) == 3
        out, err = capsys.readouterr()
        assert out.count("MISMATCH") == len(builtin_catalog())
        assert f"{len(builtin_catalog())} mismatches" in err

    def test_verify_ucp_small(self, capsys):
        rc = cli_main(["verify-ucp", "--min-periods", "4", "--max-periods", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert "verified" in out

    def test_dump_trace(self, config_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        argv = ["dump-trace", str(config_file), "--load", "0.2", "--horizon", "200"]
        rc = cli_main(argv + ["--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "user_id,degree,replica_index,start_time"
        assert len(lines) > 1
        capsys.readouterr()
        assert cli_main(argv) == 0  # without --out the dump goes to stdout
        assert capsys.readouterr().out == out.read_text()

    def test_simulate_outcome_dump(self, config_file, tmp_path):
        out = tmp_path / "outcomes.csv"
        rc = cli_main(
            ["simulate", str(config_file), "--load", "0.2", "--dump-outcomes", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "user_id,degree,outcome,window_start"
        assert len(lines) > 1
        assert lines[1].split(",")[2] in ("decoded", "lost")

    def test_simulate_outcome_dump_worker_count_invariant(self, config_file, tmp_path, capsys):
        argv = ["simulate", str(config_file), "--load", "0.3"]
        assert cli_main(argv) == 0
        row = capsys.readouterr().out
        outs = [tmp_path / f"outcomes_{j}.csv" for j in (1, 2)]
        for j, out in zip((1, 2), outs):
            assert cli_main(argv + ["--jobs", str(j), "--dump-outcomes", str(out)]) == 0
            assert capsys.readouterr().out == row
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_simulate_equals_one_point_sweep(self, config_file, tmp_path, capsys):
        assert cli_main(["simulate", str(config_file), "--load", "0.3"]) == 0
        simulated = capsys.readouterr().out
        config_file.write_text(CONFIG_TEXT.replace("load_grid = 0.2 0.3", "load_grid = 0.3"))
        out = tmp_path / "curve.csv"
        assert cli_main(["sweep", str(config_file), "--out", str(out)]) == 0
        assert simulated == out.read_text()

    def test_seed_override_changes_result(self, config_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli_main(["sweep", str(config_file), "--out", str(out_a), "--seed", "1"]) == 0
        assert cli_main(["sweep", str(config_file), "--out", str(out_b), "--seed", "2"]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()


def test_point_seed_is_stable():
    # the per-point seed derivation is part of the determinism contract
    assert point_seed(99, 0) == point_seed(99, 0)
    assert point_seed(99, 0) != point_seed(99, 1)
    assert point_seed(99, 0) != point_seed(98, 0)


class TestInputGuards:
    """Inputs that must end in exit 2 or 3 before any batch, draw, pool or
    long loop starts."""

    def test_jobs_cap(self, fast_cfg, no_pool, no_batches):
        for jobs in (MAX_JOBS + 1, 10**5):
            with pytest.raises(ConfigError, match="jobs"):
                sweep(fast_cfg, jobs=jobs)

    @pytest.mark.parametrize("command", [["sweep"], ["simulate", "--load", "0.2"]])
    def test_jobs_cap_exit_code(self, config_file, command, no_pool, no_batches, capsys):
        assert cli_main([command[0], str(config_file), *command[1:], "--jobs", "100000"]) == 2
        assert "jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new",
        [
            ("min_users_per_point = 10000", "min_users_per_point = 1e5"),
            ("seed = 99", "seed = one"),
            ("snr_db = 6.0", "snr_db = abc"),
            ("snr_db = 6.0", "snr_db = 1e308"),
            ("max_lost_events = 1000000", "max_lost_events = 0"),
        ],
    )
    def test_bad_scalar_values(self, config_file, tmp_path, old, new, capsys):
        config_file.write_text(CONFIG_TEXT.replace(old, new))
        with pytest.raises(ConfigError):
            parse_config_file(config_file)
        assert cli_main(["predict", str(config_file), "--out", str(tmp_path / "f.csv")]) == 2
        assert new.split(" = ")[0] in capsys.readouterr().err

    def test_bad_value_names_its_line(self, config_file, tmp_path, capsys):
        # a value gets its type on its own line, so the first error in line
        # order wins, here over an unknown key further down
        config_file.write_text(CONFIG_TEXT.replace("seed = 99", "seed = one") + "bogus = 1\n")
        lineno = CONFIG_TEXT.splitlines().index("seed = 99") + 1
        where = f"{config_file}:{lineno}: bad value for 'seed': 'one'"
        with pytest.raises(ConfigError) as exc:
            parse_config_file(config_file)
        assert str(exc.value) == where
        assert cli_main(["predict", str(config_file), "--out", str(tmp_path / "f.csv")]) == 2
        assert where in capsys.readouterr().err

    def test_huge_user_count_is_not_divided(self):
        # 10**400 / users_per_batch would overflow a float
        with pytest.raises(ConfigError, match="batches"):
            ExperimentConfig(
                system=SystemConfig.from_db(6.0, 1.5, 20.0),
                distribution=DegreeDistribution.regular(2),
                load_grid=(0.2,),
                min_users_per_point=10**400,
            )

    def test_non_utf8_config(self, config_file, tmp_path):
        config_file.write_bytes(CONFIG_TEXT.encode() + b"# \xff\xfe\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config_file(config_file)
        assert cli_main(["predict", str(config_file), "--out", str(tmp_path / "f.csv")]) == 2

    def test_unreadable_catalog(self, config_file, tmp_path, capsys):
        out = str(tmp_path / "f.csv")
        bad = tmp_path / "cat.txt"
        bad.write_bytes(b"d22-m2 0,2 2 1 \xff\n")
        for catalog in ("/nonexistent/catalog.txt", str(bad), str(tmp_path)):
            assert cli_main(["predict", str(config_file), "--catalog", catalog, "--out", out]) == 2
            assert "cannot read catalog" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "d22-m2 0,x 2 1\n",
            "d22-m2 0,2 2\n",
            "d11-m2 2 2 1\n",
            "# no patterns\n",
            "d22-m2 0,2,-1 2 1\n",
            "none-m2 0,0 2 1\n",
            "d22-m0 0,2 0 1\n",
        ],
        ids=["bad-integer", "field-count", "degree-1", "empty", "negative-count", "no-users", "no-sets"],
    )
    @pytest.mark.parametrize("command", ["predict", "sweep"])
    def test_malformed_catalog_exit_code(self, config_file, tmp_path, text, command, no_pool, no_batches, capsys):
        catalog = tmp_path / "cat.txt"
        catalog.write_text(text)
        out = str(tmp_path / "f.csv")
        assert cli_main([command, str(config_file), "--catalog", str(catalog), "--out", out]) == 2
        assert "malformed catalog" in capsys.readouterr().err

    def test_output_is_a_directory(self, config_file, tmp_path, capsys):
        assert cli_main(["predict", str(config_file), "--out", str(tmp_path)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_huge_poisson_mixture_refused_before_the_first_term(self, config_file, tmp_path, monkeypatch, capsys):
        # vf_span = 1e300 would need about 2e299 terms per load point
        def no_term(*args):
            raise AssertionError("the mixture started summing")

        monkeypatch.setattr(errorfloor, "_poisson_log_pmf", no_term)
        config_file.write_text(CONFIG_TEXT.replace("vf_span = 20", "vf_span = 1e300"))
        assert cli_main(["predict", str(config_file), "--out", str(tmp_path / "f.csv")]) == 3
        assert "terms" in capsys.readouterr().err
        system = SystemConfig.from_db(6.0, 1.5, 20.0)
        lam_over_cap = (errorfloor.MAX_POISSON_TERMS + 1.0) / system.vf_span
        for floor in (
            lambda load: plr_floor(load, system, DegreeDistribution.regular(2)),
            lambda load: plr_regular(load, system, 2),
            lambda load: plr_two_user(load, system, 2),
        ):
            for load in (lam_over_cap, math.inf, math.nan):
                with pytest.raises(errorfloor.NonconvergentTruncation):
                    floor(load)

    @pytest.mark.parametrize(
        "row,code,message",
        [
            ("x 0,170,0,0 2 1", 0, ""),
            ("x 0,171,0,0 2 1", 3, "float64 range"),  # 171! is no float
            ("x 0,10000,0,0 2 1", 3, "float64 range"),
            (f"x 0,2,0,0 2 {10**400}", 3, "float64 range"),
            ("x 0,10001,0,0 2 1", 2, "more than the 10000 terms"),
            ("x 0,3000000,0,0 2 1", 2, "more than the 10000 terms"),
        ],
        ids=["170-users", "171-users", "cap-users", "huge-iso-count", "over-cap", "3e6-users"],
    )
    @pytest.mark.parametrize("command", ["predict", "sweep"])
    def test_catalog_rows_past_the_float_range(self, config_file, tmp_path, row, code, message, command, capsys):
        catalog = tmp_path / "cat.txt"
        catalog.write_text(row + "\n")
        out = tmp_path / "f.csv"
        assert cli_main([command, str(config_file), "--catalog", str(catalog), "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert out.exists() == (code == 0)


_VALUES = st.one_of(
    st.sampled_from(["6", "1.5", "20", "2 1.0", "3 0.5", "0.2 0.3", "10000", "inf", "-inf", "nan",
                     "-1", "0", "1e308", "-1e308", "1e-320", "1e5", "one", "", "9" * 400]),
    st.floats().map(repr),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.sampled_from(CONFIG_TEXT.splitlines()),
    st.tuples(st.sampled_from(sorted(harness._CONFIG_KEYS) + ["bogus"]), _VALUES).map(" = ".join),
    st.text(max_size=20),
)
_CONFIG_BYTES = st.one_of(
    st.lists(_LINES, max_size=16).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")),
    st.binary(max_size=80),
)


@pytest.fixture(scope="module")
def generated_config(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "generated.cfg"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=_CONFIG_BYTES)
def test_parse_config_file_returns_a_config_or_a_config_error(generated_config, data):
    generated_config.write_bytes(data)
    try:
        cfg = parse_config_file(generated_config)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


_CLI_VALUES = st.one_of(
    st.sampled_from(["-1", "0", "1", "2", "0.2", "-0.3", "10", "11", "257", "1e6", "1e308", "-1e308",
                     "1e-320", "9" * 400, "nan", "inf", "-inf", "one", "", "0x10"]),
    st.floats().map(repr),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
)
# (required, optional) numeric flags of each command
_CLI_FLAGS = {
    "predict": ((), ()),
    "simulate": (("--load",), ("--seed", "--jobs")),
    "sweep": ((), ("--seed", "--jobs")),
    "dump-trace": (("--load", "--horizon"), ("--seed",)),
    "verify-ucp": ((), ("--min-periods", "--max-periods")),
}
_CLI_ARGS = st.sampled_from(sorted(_CLI_FLAGS)).flatmap(
    lambda command: st.tuples(
        st.just(command),
        st.fixed_dictionaries(
            {flag: _CLI_VALUES for flag in _CLI_FLAGS[command][0]},
            optional={flag: _CLI_VALUES for flag in _CLI_FLAGS[command][1]},
        ),
    )
)
# what the stand-ins below raise: no batch, draw, pool or enumeration runs
_STAND_INS = ("before the input was rejected", "a process pool was started", "counting started")


@pytest.fixture()
def no_work(no_batches, no_draws, no_pool, monkeypatch):
    def no_count(*args):
        raise AssertionError("counting started")

    monkeypatch.setattr(cli, "count_configurations", no_count)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(args=_CLI_ARGS)
def test_cli_ends_in_an_exit_code_or_a_stand_in(config_file, tmp_path, no_work, args):
    command, flags = args
    argv = [command] + ([] if command == "verify-ucp" else [str(config_file), "--out", str(tmp_path / "out")])
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    try:
        rc = cli_main(argv)
    except SystemExit as exc:  # argparse rejects the flag or its value
        rc = exc.code
    except AssertionError as exc:
        assert any(stand_in in str(exc) for stand_in in _STAND_INS), exc
        return
    assert rc in (0, 2, 3)


# one catalog row: per-degree counts from degree 1, num_sets (often just
# above the top degree, which it must reach) and iso_count
_COUNTS = st.one_of(*[st.integers(0, 3)] * 4, st.integers(100, 400), st.integers(0, 10**7))
_PROFILES = st.tuples(st.sampled_from([0] * 15 + [1]), st.lists(_COUNTS, min_size=1, max_size=4)).map(
    lambda t: [t[0], *t[1]])
_CATALOG_ROW = _PROFILES.flatmap(lambda profile: st.tuples(
    st.just(profile),
    st.one_of(st.integers(len(profile), len(profile) + 3), st.integers(-1, 10**3)),
    st.one_of(st.integers(1, 100), st.integers(-1, 10**400)),
))
# at load 8 the mixture reaches m = 270, so a row of about 100 to 170 users
# can overflow there only, after its terms were set up
IRREGULAR_CONFIG = (
    CONFIG_TEXT.replace("degree = 2 1.0", "degree = 2 0.5\ndegree = 3 0.3\ndegree = 4 0.2")
    .replace("load_grid = 0.2 0.3", "load_grid = 0.2 0.3 8")
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(_CATALOG_ROW, min_size=1, max_size=2))
def test_predict_over_catalog_rows_ends_in_an_exit_code(tmp_path, monkeypatch, rows):
    # n_v = 22 here; the rows reach 10**7 users of a degree, 1000 sets and
    # a count of 10**400, past every float and term cap of the floor. sweep
    # runs each row too, with one stand-in batch per load that meets the
    # stop rule, and must end as predict does, with no batch when it fails
    config = tmp_path / "irregular.cfg"
    config.write_text(IRREGULAR_CONFIG)
    catalog = tmp_path / "cat.txt"
    catalog.write_text("".join(f"r{i} {','.join(map(str, profile))} {mu} {count}\n"
                               for i, (profile, mu, count) in enumerate(rows)))
    batches = []

    def fixed_batch(*args):
        batches.append(args)
        return harness.BatchResult(users=10_000, lost=1, n_trace_users=10_000)

    monkeypatch.setattr(harness, "_simulate_batch", fixed_batch)
    codes, floors = [], []
    for command in ("predict", "sweep"):
        out = tmp_path / f"{command}.csv"
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        rc = cli_main([command, str(config), "--catalog", str(catalog), "--out", str(out)])
        assert time.perf_counter() - t0 < 10.0
        assert rc in (0, 2, 3)
        assert out.exists() == (rc == 0)
        codes.append(rc)
        lines = out.read_text().splitlines()[2:] if rc == 0 else []
        floors.append([line.rsplit(",", 1)[1] for line in lines])
    event(f"exit {codes[0]}")
    assert codes[1] == codes[0]
    assert floors[1] == floors[0]
    assert len(batches) == (3 if codes[1] == 0 else 0)
    if codes[0] == 0:
        assert all(0.0 <= float(f) <= 1.0 for f in floors[0]), floors[0]
