import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from irasim.model import DegreeDistribution, DegreeTooLargeForVF, ModelError, SystemConfig
from irasim.traffic import HorizonTooShort, _relative_offsets, check_trace, generate_trace, sample_degrees

from oracles import place_replicas_rejection


def test_sample_degree_degenerate(dist_x2):
    assert np.all(sample_degrees(dist_x2, 50, np.random.default_rng(0)) == 2)


def test_sample_degree_frequencies_lambda2(dist_lambda2):
    rng = np.random.default_rng(1)
    n = 10**6
    draws = sample_degrees(dist_lambda2, n, rng)
    f2 = np.mean(draws == 2)
    sigma = math.sqrt(0.51 * 0.49 / n)
    assert abs(f2 - 0.51) <= 3 * sigma


def test_sample_degree_mean_lambda1(dist_lambda1):
    rng = np.random.default_rng(2)
    n = 10**6
    draws = sample_degrees(dist_lambda1, n, rng)
    var = sum(p * d * d for d, p in dist_lambda1.entries) - 3.523**2
    assert abs(draws.mean() - 3.523) <= 3 * math.sqrt(var / n)


def test_degree_histogram_chi_square(dist_lambda1):
    rng = np.random.default_rng(3)
    n = 2 * 10**5
    draws = sample_degrees(dist_lambda1, n, rng)
    observed = [np.sum(draws == d) for d in dist_lambda1.degrees]
    expected = [p * n for p in dist_lambda1.probabilities]
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue >= 1e-3


class TestPlacement:
    def test_degree_two_gap_range(self, cfg_tf200_r15):
        rel = _relative_offsets(2, 500, cfg_tf200_r15, np.random.default_rng(4))
        assert rel.shape == (500, 1)
        assert np.all((1.0 <= rel) & (rel <= 199.0))

    def test_degree_four_constraints(self, cfg_tf200_r15):
        rel = _relative_offsets(4, 300, cfg_tf200_r15, np.random.default_rng(5))
        starts = np.concatenate([np.zeros((300, 1)), rel], axis=1)
        assert np.all(np.diff(starts, axis=1) >= 1.0)
        assert np.all(starts[:, -1] <= 199.0)

    def test_degenerate_frame_has_unique_placement(self):
        cfg = SystemConfig(snr_linear=4.0, rate=1.5, vf_span=2.0)
        rel = _relative_offsets(2, 3, cfg, np.random.default_rng(6))
        assert rel.tolist() == [[1.0]] * 3

    def test_infeasible_degree_raises(self):
        # the config check, not the placement, rejects a degree above the frame
        cfg = SystemConfig(snr_linear=4.0, rate=1.5, vf_span=2.0)
        with pytest.raises(DegreeTooLargeForVF) as info:
            generate_trace(cfg, DegreeDistribution.regular(3), 0.1, 100.0, np.random.default_rng(7))
        assert isinstance(info.value, ModelError)

    def test_law_matches_rejection_oracle(self):
        # the spacing construction must realise the same distribution as
        # whole-set rejection; compare second-start samples on a tight frame
        cfg = SystemConfig(snr_linear=4.0, rate=1.5, vf_span=5.0)
        n = 4000
        ours = _relative_offsets(3, n, cfg, np.random.default_rng(8))[:, 0]
        rng = np.random.default_rng(9)
        ref = np.array([place_replicas_rejection(0.0, 3, 5.0, rng)[1] for _ in range(n)])
        _, pvalue = stats.ks_2samp(ours, ref)
        assert pvalue > 1e-4


class TestReplicaInvariants:
    """The placement rules, checked on the arrays of whole traces over
    several degree mixes, tight frames included."""

    @pytest.fixture(scope="class")
    def traces(self, cfg_tf200_r15, dist_x2, dist_x3, dist_lambda1, dist_lambda2):
        tight = SystemConfig(snr_linear=4.0, rate=1.5, vf_span=5.0, window_span=2.0)
        cases = [(cfg_tf200_r15, d) for d in (dist_x2, dist_x3, dist_lambda1, dist_lambda2)]
        cases.append((tight, DegreeDistribution.from_pairs([(2, 0.2), (4, 0.3), (5, 0.5)])))
        rng = np.random.default_rng(18)
        out = [(cfg, generate_trace(cfg, dist, 0.3, 4000.0, rng)) for cfg, dist in cases]
        assert all(trace.n_users > 500 for _, trace in out)
        return out

    def test_first_replica_at_arrival(self, traces):
        for _, trace in traces:
            assert np.array_equal(trace.rep_start[trace.rep_ptr[:-1]], trace.arrival)

    def test_minimum_separation(self, traces):
        for _, trace in traces:
            same_user = np.ones(trace.n_replicas - 1, dtype=bool)
            same_user[trace.rep_ptr[1:-1] - 1] = False
            assert np.diff(trace.rep_start)[same_user].min() >= 1.0 - 1e-9

    def test_last_start_fits_virtual_frame(self, traces):
        for cfg, trace in traces:
            last = trace.rep_start[trace.rep_ptr[1:] - 1]
            assert np.all(last <= trace.arrival + (cfg.vf_span - 1.0))

    def test_pairwise_separation(self, traces):
        for _, trace in traces:
            for d in np.unique(trace.degree):
                own = trace.rep_ptr[:-1][trace.degree == d]
                starts = trace.rep_start[own[:, None] + np.arange(d)]
                gaps = np.abs(starts[:, :, None] - starts[:, None, :])
                assert gaps[:, ~np.eye(d, dtype=bool)].min() >= 1.0 - 1e-9


class TestGenerateTrace:
    def test_arrival_count_poisson(self, cfg_tf200_r15, dist_x2):
        rng = np.random.default_rng(10)
        trace = generate_trace(cfg_tf200_r15, dist_x2, 0.5, 10**4, rng)
        assert abs(trace.n_users - 5000) <= 3 * math.sqrt(5000)

    def test_vanishing_load_gives_empty_trace(self, dist_x2):
        cfg = SystemConfig(snr_linear=4.0, rate=1.5, vf_span=100.0)
        rng = np.random.default_rng(11)
        trace = generate_trace(cfg, dist_x2, 1e-6, 10**3, rng)
        assert trace.n_users <= 1

    def test_physical_load(self, cfg_tf200_r15, dist_x2):
        rng = np.random.default_rng(12)
        horizon = 10**5
        trace = generate_trace(cfg_tf200_r15, dist_x2, 0.1, horizon, rng)
        gp = trace.n_replicas / horizon
        sigma = math.sqrt(0.1 * horizon) * 2 / horizon  # replicas = 2 * Poisson
        assert abs(gp - 0.2) <= 3 * sigma

    def test_horizon_too_short(self, cfg_tf200_r15, dist_x2):
        with pytest.raises(HorizonTooShort):
            generate_trace(cfg_tf200_r15, dist_x2, 0.1, 100.0, np.random.default_rng(0))

    def test_starts_stay_below_2_53(self, cfg_tf200_r15, dist_x2):
        # every start s, below horizon + vf_span, keeps s + 1.0 > s; the
        # integers up to 2**53 are exact, so the sums below are too
        vf = cfg_tf200_r15.vf_span
        check_trace(cfg_tf200_r15, dist_x2, 1e-15, 2.0**53 - 1.0 - vf)
        with pytest.raises(ModelError, match=r"2\*\*53"):
            check_trace(cfg_tf200_r15, dist_x2, 1e-15, 2.0**53 - vf)

    def test_reproducible_for_fixed_seed(self, cfg_tf200_r15, dist_lambda1):
        t1 = generate_trace(cfg_tf200_r15, dist_lambda1, 0.3, 5000.0, np.random.default_rng(13))
        t2 = generate_trace(cfg_tf200_r15, dist_lambda1, 0.3, 5000.0, np.random.default_rng(13))
        assert np.array_equal(t1.arrival, t2.arrival)
        assert np.array_equal(t1.degree, t2.degree)
        assert np.array_equal(t1.rep_start, t2.rep_start)

    def test_every_user_satisfies_invariants(self, cfg_tf200_r15, dist_lambda1):
        rng = np.random.default_rng(14)
        trace = generate_trace(cfg_tf200_r15, dist_lambda1, 0.2, 3000.0, rng)
        assert trace.n_users > 0
        assert np.array_equal(np.diff(trace.rep_ptr), trace.degree)
        span = trace.rep_start[trace.rep_ptr[1:] - 1] + 1.0 - trace.rep_start[trace.rep_ptr[:-1]]
        assert np.all(span <= cfg_tf200_r15.vf_span + 1e-9)
        assert np.all(span >= trace.degree - 1.0)
        assert np.all(np.diff(trace.arrival) >= 0)

    def test_dump_replicas_format(self, cfg_tf200_r15, dist_x2):
        rng = np.random.default_rng(16)
        trace = generate_trace(cfg_tf200_r15, dist_x2, 0.05, 1000.0, rng)
        buf = io.StringIO()
        trace.dump_replicas(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "user_id,degree,replica_index,start_time"
        assert len(lines) == 1 + trace.n_replicas
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "0"

    def test_interarrival_times_exponential(self, cfg_tf200_r15, dist_x2):
        rng = np.random.default_rng(17)
        trace = generate_trace(cfg_tf200_r15, dist_x2, 0.4, 5 * 10**4, rng)
        gaps = np.diff(trace.arrival)
        _, pvalue = stats.kstest(gaps, "expon", args=(0, 1 / 0.4))
        assert pvalue > 1e-4


def test_a_batch_does_not_import_numpy_ma():
    # numpy.ma costs every fresh worker a lazy import of 10-20 ms and about
    # 1 MB; np.unique would pull it in through np.ma.is_masked
    code = (
        "import sys\n"
        "from irasim.harness import _simulate_batch\n"
        "from irasim.model import DegreeDistribution, SystemConfig\n"
        "dist = DegreeDistribution.from_pairs([(2, 0.5), (3, 0.3), (5, 0.2)])\n"
        "_simulate_batch(SystemConfig.from_db(6.0, 1.5, 20.0), dist, 0.3, 1, 0)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
