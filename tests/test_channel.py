import math

import numpy as np
import pytest

from irasim.channel import (
    avg_mutual_information,
    build_timeline,
    is_decodable,
    symbol_mi,
)
from irasim.model import TimeInterval

from oracles import quantized_avg_mi

RHO = 10**0.6
I0 = math.log2(1 + RHO)
I1 = math.log2(1 + RHO / (1 + RHO))


def random_timeline(rng, n_others=None):
    replica = TimeInterval(0.0, 1.0)
    k = int(rng.integers(0, 5)) if n_others is None else n_others
    others = [TimeInterval(o, o + 1.0) for o in rng.uniform(-1.0, 1.0, k)]
    return replica, others


class TestBuildTimeline:
    def test_no_interference(self):
        tl = build_timeline(TimeInterval(0.0, 1.0), [])
        assert len(tl.segments) == 1
        assert tl.segments[0][1] == 0

    def test_full_collision(self):
        tl = build_timeline(TimeInterval(0.0, 1.0), [TimeInterval(0.0, 1.0)])
        assert len(tl.segments) == 1
        assert tl.segments[0][1] == 1

    def test_two_offset_interferers(self):
        # others at +0.3 and -0.4 against replica [0, 1]
        tl = build_timeline(
            TimeInterval(0.0, 1.0),
            [TimeInterval(0.3, 1.3), TimeInterval(-0.4, 0.6)],
        )
        spans = [(iv.begin, iv.end, k) for iv, k in tl.segments]
        assert spans == [
            (0.0, pytest.approx(0.3), 1),
            (pytest.approx(0.3), pytest.approx(0.6), 2),
            (pytest.approx(0.6), 1.0, 1),
        ]

    def test_counts_match_pointwise_overlap(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            replica, others = random_timeline(rng)
            tl = build_timeline(replica, others)
            assert tl.begin == replica.begin and tl.end == replica.end
            for iv, k in tl.segments:
                mid = 0.5 * (iv.begin + iv.end)
                truth = sum(1 for o in others if o.begin < mid < o.end)
                assert k == truth
            assert len(tl.segments) <= 2 * len(others) + 1


class TestAverageMi:
    def test_clean_packet(self):
        tl = build_timeline(TimeInterval(0.0, 1.0), [])
        assert avg_mutual_information(tl, RHO) == pytest.approx(2.3165, abs=1e-4)

    def test_fully_collided_packet(self):
        tl = build_timeline(TimeInterval(0.0, 1.0), [TimeInterval(0.0, 1.0)])
        assert avg_mutual_information(tl, RHO) == pytest.approx(0.8474, abs=1e-4)

    def test_half_overlap_is_arithmetic_mean(self):
        tl = build_timeline(TimeInterval(0.0, 1.0), [TimeInterval(0.5, 1.5)])
        assert avg_mutual_information(tl, RHO) == pytest.approx((I0 + I1) / 2, abs=1e-12)

    def test_monotone_under_interferer_removal(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            replica, others = random_timeline(rng)
            if not others:
                continue
            mi_all = avg_mutual_information(build_timeline(replica, others), RHO)
            drop = int(rng.integers(len(others)))
            reduced = others[:drop] + others[drop + 1 :]
            mi_less = avg_mutual_information(build_timeline(replica, reduced), RHO)
            assert mi_less >= mi_all - 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            replica, others = random_timeline(rng)
            tl = build_timeline(replica, others)
            mi = avg_mutual_information(tl, RHO)
            most = max(k for _, k in tl.segments)
            assert symbol_mi(RHO, most) - 1e-12 <= mi <= I0 + 1e-12

    def test_discretization_consistency(self):
        rng = np.random.default_rng(3)
        n_s = 1000
        for _ in range(100):
            replica, others = random_timeline(rng, n_others=4)
            tl = build_timeline(replica, others)
            exact = avg_mutual_information(tl, RHO)
            grid = quantized_avg_mi(tl, RHO, n_s)
            assert abs(grid - exact) <= 10 * I0 / n_s


class TestDecodability:
    @pytest.mark.parametrize("rate", [1.5, 2.0])
    def test_single_interferer_threshold_overlap(self, rate):
        # one interferer is survivable exactly up to overlap 1 - phi, where
        # phi is the clean fraction required by the rate threshold
        from irasim.errorfloor import vulnerable_fraction

        phi = vulnerable_fraction(RHO, rate)
        for alpha in np.linspace(0.005, 0.995, 67):
            mi = (1 - alpha) * I0 + alpha * I1
            assert is_decodable(mi, rate) == (alpha <= 1 - phi)

    def test_clean_decodes_at_6db_r15(self):
        assert is_decodable(2.3165, 1.5)

    def test_fully_collided_fails(self):
        assert not is_decodable(0.8473, 1.5)

    def test_boundary_is_inclusive(self):
        assert is_decodable(1.5, 1.5)
