import math

import pytest

from irasim.model import (
    DegreeDistribution,
    DegreeTooLargeForVF,
    InvalidPhysicalParameter,
    NonNormalizedDistribution,
    SystemConfig,
    TimeInterval,
    UserTransmission,
    validate_config,
)


def test_paper_scenario_config_is_valid(cfg_tf200_r15, dist_x2):
    validate_config(cfg_tf200_r15, dist_x2)
    assert cfg_tf200_r15.snr_linear == pytest.approx(10**0.6)
    assert cfg_tf200_r15.snr_db == pytest.approx(6.0)


def test_from_db_conversion():
    cfg = SystemConfig.from_db(0.0, 1.0, 10.0)
    assert cfg.snr_linear == pytest.approx(1.0)


def test_non_normalized_distribution_rejected():
    with pytest.raises(NonNormalizedDistribution):
        DegreeDistribution.from_pairs([(2, 0.5), (3, 0.4)])


def test_degree_too_large_for_vf(cfg_tf200_r15):
    dist = DegreeDistribution.from_pairs([(2, 0.5), (300, 0.5)])
    with pytest.raises(DegreeTooLargeForVF):
        validate_config(cfg_tf200_r15, dist)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(snr_linear=-1.0, rate=1.5, vf_span=200.0),
        dict(snr_linear=4.0, rate=0.0, vf_span=200.0),
        dict(snr_linear=4.0, rate=1.5, vf_span=1.5),
        dict(snr_linear=4.0, rate=1.5, vf_span=200.0, window_span=0.5),
        dict(snr_linear=4.0, rate=1.5, vf_span=200.0, window_step=0.0),
        dict(snr_linear=4.0, rate=1.5, vf_span=200.0, packet_duration=2.0),
        dict(snr_linear=4.0, rate=1.5, vf_span=200.0, window_span=math.inf),
        dict(snr_linear=4.0, rate=1.5, vf_span=200.0, window_span=math.inf, window_step=math.inf),
        dict(snr_linear=4.0, rate=1.5, vf_span=200.0, window_span=math.nan),
        dict(snr_linear=4.0, rate=1.5, vf_span=200.0, window_step=math.nan),
    ],
)
def test_invalid_physical_parameters(kwargs):
    with pytest.raises(InvalidPhysicalParameter):
        SystemConfig(**kwargs)


def test_window_must_cover_vf_plus_packet():
    # window_span >= 1 + 1/vf_span
    SystemConfig(snr_linear=4.0, rate=1.5, vf_span=10.0, window_span=1.1)
    with pytest.raises(InvalidPhysicalParameter):
        SystemConfig(snr_linear=4.0, rate=1.5, vf_span=10.0, window_span=1.05)


def test_four_named_distributions(dist_x2, dist_x3, dist_lambda1, dist_lambda2):
    assert dist_x2.mean_degree == pytest.approx(2.0)
    assert dist_x3.mean_degree == pytest.approx(3.0)
    # direct expectation of 0.263 x^2 + 0.344 x^3 + 0.393 x^5
    assert dist_lambda1.mean_degree == pytest.approx(3.523, abs=1e-12)
    assert dist_lambda2.mean_degree == pytest.approx(2 * 0.51 + 4 * 0.49)
    assert dist_lambda1.d_m == 5
    assert dist_lambda2.prob(3) == 0.0


def test_distribution_rejects_degree_below_two():
    with pytest.raises(InvalidPhysicalParameter):
        DegreeDistribution.from_pairs([(1, 0.5), (2, 0.5)])


def test_distribution_rejects_duplicates():
    with pytest.raises(InvalidPhysicalParameter):
        DegreeDistribution.from_pairs([(2, 0.5), (2, 0.5)])


def test_time_interval_invariants():
    iv = TimeInterval(0.0, 1.0)
    assert iv.length == 1.0
    assert iv.overlap_length(TimeInterval(0.5, 1.5)) == pytest.approx(0.5)
    assert not iv.overlaps(TimeInterval(1.0, 2.0))
    with pytest.raises(InvalidPhysicalParameter):
        TimeInterval(1.0, 1.0)


class TestUserTransmission:
    def test_valid_construction(self):
        u = UserTransmission(user_id=0, arrival=5.0, degree=3, replica_starts=(5.0, 7.0, 10.5))
        assert u.intervals()[0].begin == 5.0
        assert u.fits_virtual_frame(200.0)

    def test_first_replica_at_arrival(self):
        with pytest.raises(InvalidPhysicalParameter):
            UserTransmission(user_id=0, arrival=5.0, degree=2, replica_starts=(5.5, 7.0))

    def test_minimum_separation(self):
        with pytest.raises(InvalidPhysicalParameter):
            UserTransmission(user_id=0, arrival=0.0, degree=2, replica_starts=(0.0, 0.8))

    def test_accepted_users_keep_pairwise_separation(self):
        # any accepted construction has all pairwise gaps >= one packet
        import numpy as np

        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            rel = np.sort(rng.uniform(0, 50 - d, d - 1)) + np.arange(1, d)
            starts = tuple(np.concatenate(([0.0], rel)))
            u = UserTransmission(user_id=0, arrival=0.0, degree=d, replica_starts=starts)
            arr = np.array(u.replica_starts)
            gaps = np.abs(arr[:, None] - arr[None, :])[~np.eye(d, dtype=bool)]
            assert gaps.min() >= 1.0 - 1e-9


def test_mean_degree_matches_direct_expectation(dist_lambda1):
    direct = math.fsum(d * p for d, p in dist_lambda1.entries)
    assert dist_lambda1.mean_degree == direct
