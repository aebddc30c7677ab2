import math
import random

import numpy as np
import pytest

from irasim.errorfloor import (
    _MAX_ENUM_PERIODS,
    CollisionChannelRegimeWarning,
    CollisionPattern,
    DegenerateVulnerablePeriod,
    EnumerationTooLarge,
    FloorError,
    InfeasiblePattern,
    builtin_catalog,
    count_configurations,
    edge_assignment_count,
    floor_params,
    load_catalog,
    period_choice_count,
    plr_floor,
    plr_regular,
    plr_two_user,
    prob_user_in_pattern,
    profile_selection_count,
    two_user_pattern,
    vp_count,
    vulnerable_fraction,
    write_catalog,
)
from irasim.model import DegreeDistribution, SystemConfig

from oracles import count_configurations_labelled, plr_floor_mp, two_user_closed_form

RHO = 10**0.6


class TestVulnerableFraction:
    def test_golden_values(self):
        assert 0.443 <= vulnerable_fraction(RHO, 1.5) <= 0.446
        assert 0.783 <= vulnerable_fraction(RHO, 2.0) <= 0.786

    def test_low_rate_never_vulnerable(self):
        i1 = math.log2(1 + RHO / (1 + RHO))
        assert vulnerable_fraction(RHO, i1 * 0.9) == 0.0

    def test_collision_regime_flagged(self):
        i0 = math.log2(1 + RHO)
        with pytest.warns(CollisionChannelRegimeWarning):
            assert vulnerable_fraction(RHO, i0 + 0.1) == 1.0

    def test_monotone_in_rate_and_snr(self):
        rates = np.linspace(0.9, 2.2, 12)
        phis = [vulnerable_fraction(RHO, r) for r in rates]
        assert all(b > a for a, b in zip(phis, phis[1:]))
        snrs = np.linspace(3.0, 8.0, 12)
        phis = [vulnerable_fraction(s, 1.5) for s in snrs]
        assert all(b < a for a, b in zip(phis, phis[1:]))
        assert all(0.0 <= p <= 1.0 for p in phis)


class TestVpCount:
    def test_three_scenarios(self):
        assert vp_count(200.0, vulnerable_fraction(RHO, 1.5)) == 225
        assert vp_count(200.0, vulnerable_fraction(RHO, 2.0)) == 127
        assert vp_count(100.0, vulnerable_fraction(RHO, 1.5)) == 112

    def test_degenerate(self):
        with pytest.raises(DegenerateVulnerablePeriod):
            vp_count(200.0, 0.0)


class TestFloorParams:
    def test_bundle(self, cfg_tf200_r15):
        fp = floor_params(cfg_tf200_r15)
        assert fp.n_v == 225
        assert fp.n_p == 200.0
        assert fp.phi == vulnerable_fraction(cfg_tf200_r15.snr_linear, 1.5)


class TestCombinatorialTerms:
    def test_selection_forced(self, dist_x2):
        assert profile_selection_count(2, (0, 2, 0, 0), dist_x2) == pytest.approx(1.0)

    def test_selection_regular_reduces_to_binomial(self, dist_x2):
        assert profile_selection_count(5, (0, 2, 0, 0), dist_x2) == pytest.approx(10.0)

    def test_selection_irregular(self, dist_lambda1):
        # C(4,3) * 3! * (0.263^2 / 2!) * 0.344
        want = 4 * 6 * (0.263**2 / 2) * 0.344
        got = profile_selection_count(4, (0, 2, 1, 0), dist_lambda1)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.2856, abs=2e-4)

    def test_selection_zero_cases(self, dist_x2):
        assert profile_selection_count(2, (0, 3, 0, 0), dist_x2) == 0.0
        assert profile_selection_count(5, (0, 1, 1, 0), dist_x2) == 0.0

    def test_period_choices(self):
        assert period_choice_count(225, 2) == 224
        assert period_choice_count(225, 1) == 1
        assert period_choice_count(7, 7) == 1
        with pytest.raises(InfeasiblePattern):
            period_choice_count(3, 4)

    def test_edge_assignments(self):
        assert edge_assignment_count(225, (0, 2, 0, 0)) == 225 * 224**2 == 11_289_600
        assert edge_assignment_count(225, (0, 0, 2, 0)) == (225 * math.comb(224, 2)) ** 2 // 225
        assert edge_assignment_count(225, (0, 0, 0, 0)) == pytest.approx(1 / 225)


class TestProbUserInPattern:
    def test_two_user_pair(self, dist_x2):
        s1 = builtin_catalog()[0]
        got = prob_user_in_pattern(2, s1, 225, dist_x2)
        assert got == pytest.approx(1.0 / (225 * 224), rel=1e-12)

    def test_too_few_users(self, dist_x2):
        s3 = builtin_catalog()[2]
        assert prob_user_in_pattern(2, s3, 225, dist_x2) == 0.0

    def test_missing_degree(self, dist_x2):
        s2 = builtin_catalog()[1]  # needs degree-3 users
        assert prob_user_in_pattern(5, s2, 225, dist_x2) == 0.0

    def test_stays_in_unit_interval(self, dist_lambda1, dist_lambda2):
        for dist in (dist_lambda1, dist_lambda2):
            for n_v in (112, 127, 225):
                for s in builtin_catalog():
                    for m in range(2, 51):
                        pr = prob_user_in_pattern(m, s, n_v, dist)
                        assert 0.0 <= pr <= 1.0


class TestPlrFloor:
    def test_matches_high_precision_oracle(self, cfg_tf200_r15, dist_x2):
        got = plr_floor(0.1, cfg_tf200_r15, dist_x2)
        # frozen from the mpmath oracle in oracles.py (60 digits, 400 terms)
        frozen = 4.30001148636926e-04
        assert got == pytest.approx(frozen, rel=1e-6)
        live = plr_floor_mp(0.1, 200, 6.0, 1.5, [(2, 1.0)])
        assert got == pytest.approx(live, rel=1e-6)

    def test_feasible_subset_for_degree_two(self, cfg_tf200_r15, dist_x2):
        diag = {}
        plr_floor(0.1, cfg_tf200_r15, dist_x2, diagnostics=diag)
        assert diag["patterns"] == ["d22-m2", "d222-m3", "d2222-m4"]
        assert diag["n_v"] == 225

    def test_vanishing_load(self, cfg_tf200_r15, dist_x2):
        values = [plr_floor(g, cfg_tf200_r15, dist_x2) for g in (1e-4, 1e-3, 1e-2)]
        assert values[0] < values[1] < values[2]
        assert values[0] < 1e-8

    def test_catalog_growth_is_monotone(self, cfg_tf200_r15, dist_lambda1):
        cat = builtin_catalog()
        prev = 0.0
        for k in range(1, len(cat) + 1):
            cur = plr_floor(0.2, cfg_tf200_r15, dist_lambda1, cat[:k])
            assert cur >= prev - 1e-18
            prev = cur

    def test_zero_when_one_interferer_harmless(self, dist_x2):
        cfg = SystemConfig.from_db(6.0, 0.5, 200.0)  # rate below single-collision MI
        assert plr_floor(0.3, cfg, dist_x2) == 0.0

    def test_empty_catalog_rejected(self, cfg_tf200_r15, dist_x2):
        with pytest.raises(FloorError):
            plr_floor(0.1, cfg_tf200_r15, dist_x2, ())

    def test_truncation_stability(self, cfg_tf200_r15, dist_lambda2):
        # the adaptive cut-off keeps the floor at the 400-term mpmath sum
        for g in (0.02, 0.1, 0.5, 1.0):
            a = plr_floor(g, cfg_tf200_r15, dist_lambda2)
            b = plr_floor_mp(g, 200, 6.0, 1.5, dist_lambda2.entries)
            assert a == pytest.approx(b, rel=1e-12)


class TestSpecialisations:
    @pytest.mark.parametrize("degree", [2, 3])
    def test_regular_equals_generic(self, cfg_tf200_r15, degree):
        dist = DegreeDistribution.regular(degree)
        for g in np.linspace(0.01, 1.0, 10):
            a = plr_floor(g, cfg_tf200_r15, dist)
            b = plr_regular(g, cfg_tf200_r15, degree)
            assert b == pytest.approx(a, rel=1e-12)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_two_user_equals_singleton_catalog(self, cfg_tf200_r15, degree):
        dist = DegreeDistribution.regular(degree)
        single = (two_user_pattern(degree),)
        for g in np.linspace(0.01, 1.0, 10):
            a = plr_floor(g, cfg_tf200_r15, dist, single)
            b = plr_two_user(g, cfg_tf200_r15, degree)
            assert b == pytest.approx(a, rel=1e-12)

    @pytest.mark.parametrize("vf_span,n_v", [(4.0, 2), (6.0, 3)])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_clamped_regime(self, vf_span, n_v, degree):
        # with only 2-3 vulnerable periods most per-m terms exceed 1 and are
        # capped; the three forms must cap the same terms
        cfg = SystemConfig.from_db(6.0, 2.0, vf_span)
        assert floor_params(cfg).n_v == n_v
        dist = DegreeDistribution.regular(degree)
        single = (two_user_pattern(degree),)
        clamped = 0
        for g in (0.1, 1.0, 3.0):
            diags = [{}, {}, {}, {}]
            full = plr_floor(g, cfg, dist, diagnostics=diags[0])
            reg = plr_regular(g, cfg, degree, diagnostics=diags[1])
            two_ref = plr_floor(g, cfg, dist, single, diagnostics=diags[2])
            two = plr_two_user(g, cfg, degree, diagnostics=diags[3])
            assert reg == pytest.approx(full, rel=1e-12)
            assert two == pytest.approx(two_ref, rel=1e-12)
            counts = [d.get("clamped_terms", 0) for d in diags]
            assert counts[0] == counts[1] and counts[2] == counts[3]
            clamped += counts[0] + counts[2]
        assert clamped > 0 or degree > n_v

    @pytest.mark.parametrize("vf_span,n_v", [(4.0, 2), (6.0, 3)])
    def test_two_user_clamped_closed_form(self, vf_span, n_v):
        # degree 2: the m-user term (m - 1) / (n_v (n_v - 1)) reaches 1 at
        # m = k and is capped there, so every m >= k contributes its whole mass
        cfg = SystemConfig.from_db(6.0, 2.0, vf_span)
        k = n_v * (n_v - 1) + 1
        for g in (0.1, 1.0, 3.0):
            lam = vf_span * g
            pm = [math.exp(-lam) * lam**m / math.factorial(m) for m in range(k)]
            closed = sum(p * (m - 1) / (k - 1) for m, p in enumerate(pm) if m >= 2) + 1.0 - sum(pm)
            assert plr_two_user(g, cfg, 2) == pytest.approx(closed, rel=1e-12)

    def test_two_user_closed_form(self, cfg_tf200_r15):
        got = plr_two_user(0.1, cfg_tf200_r15, 2)
        closed = two_user_closed_form(0.1, 200, 225)
        assert got == pytest.approx(closed, rel=5e-11)
        assert closed == pytest.approx(3.77e-4, rel=1e-3)


class TestCatalog:
    def test_twelve_rows(self):
        cat = builtin_catalog()
        assert len(cat) == 12
        assert cat[0].profile == (0, 2, 0, 0) and cat[0].num_users == 2
        assert cat[0].num_sets == 2 and cat[0].iso_count == 1
        assert cat[6].profile == (0, 1, 2, 0) and cat[6].iso_count == 12
        assert cat[8].profile == (0, 0, 3, 0) and cat[8].num_sets == 4 and cat[8].iso_count == 24
        assert cat[11].profile == (0, 4, 0, 0) and cat[11].num_users == 4
        assert cat[11].num_sets == 4 and cat[11].iso_count == 72

    def test_pattern_invariants_enforced(self):
        with pytest.raises(InfeasiblePattern):
            CollisionPattern("bad", (0, 1, 0, 0), 2, 1)  # 2 replicas for 2 sets of >= 2
        with pytest.raises(InfeasiblePattern):
            CollisionPattern("bad", (1, 1, 0, 0), 1, 1)  # degree-1 user
        with pytest.raises(InfeasiblePattern):
            CollisionPattern("bad", (0, 2, 0, 0), 2, 0)  # zero configurations

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "catalog.txt"
        write_catalog(path, builtin_catalog())
        again = load_catalog(path)
        assert again == builtin_catalog()

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("only three fields 4\n")
        with pytest.raises(FloorError):
            load_catalog(path)


def random_patterns(seed, count, *, extra_periods, oracle_budget=None, nonzero_only=False):
    """Distinct seeded ``(pattern, n_periods)`` cases: 1-5 users of degree
    2-5, ``num_sets`` 1-5 and ``n_periods`` up to ``extra_periods`` above it.

    ``oracle_budget`` bounds the labelled oracle's search, the product of the
    users' mask counts; ``nonzero_only`` keeps ``num_sets`` at or above the
    largest degree, below which every count is 0 before any search.
    """
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        degrees = sorted(rng.randint(2, 5) for _ in range(rng.randint(1, 5)))
        lo = max(degrees) if nonzero_only else 1
        hi = min(5, sum(degrees) // 2)
        if lo > hi:
            continue
        mu = rng.randint(lo, hi)
        n = rng.randint(mu, mu + extra_periods)
        if oracle_budget is None or math.prod(math.comb(n, d) for d in degrees) <= oracle_budget:
            seen.add((tuple(degrees), mu, n))
    cases = []
    for degrees, mu, n in sorted(seen):
        profile = tuple(degrees.count(l) for l in range(1, 6))
        cases.append((CollisionPattern(f"r{''.join(map(str, degrees))}-m{mu}", profile, mu, 1), n))
    return cases


class TestCountConfigurations:
    @pytest.mark.parametrize("pattern", builtin_catalog(), ids=lambda p: p.name)
    def test_matches_iso_count_small(self, pattern):
        for n in (6, 9, 10):
            got = count_configurations(pattern, n)
            assert got == math.comb(n, pattern.num_sets) * pattern.iso_count

    def test_exact_fit(self):
        # with exactly num_sets periods the count is the configuration count
        for pattern in builtin_catalog():
            assert count_configurations(pattern, pattern.num_sets) == pattern.iso_count

    def test_enumeration_guard(self):
        with pytest.raises(EnumerationTooLarge):
            count_configurations(builtin_catalog()[0], 11)

    def test_infeasible_returns_zero(self):
        deg5_pair = CollisionPattern("d55-m5", (0, 0, 0, 0, 2), 5, 1)
        assert count_configurations(deg5_pair, 4) == 0

    @pytest.mark.parametrize("pattern", builtin_catalog(), ids=lambda p: p.name)
    def test_matches_labelled_oracle_builtin(self, pattern):
        for n in range(pattern.num_sets, 9):
            assert count_configurations(pattern, n) == count_configurations_labelled(pattern, n)

    def test_matches_labelled_oracle_random(self):
        cases = random_patterns(20_261_018, 400, extra_periods=2, oracle_budget=20_000)
        nonzero = 0
        for pattern, n in cases:
            want = count_configurations_labelled(pattern, n)
            assert count_configurations(pattern, n) == want, (pattern.name, n)
            nonzero += want > 0
        assert nonzero >= 20

    def test_count_scales_with_chosen_periods(self):
        # a realising assignment occupies exactly num_sets periods and every
        # condition looks only at those, so count(n) = comb(n, mu) count(mu)
        patterns = list(builtin_catalog())
        patterns += [p for p, _ in random_patterns(7, 30, extra_periods=0, nonzero_only=True)]
        nonzero = 0
        for pattern in patterns:
            mu = pattern.num_sets
            base = count_configurations(pattern, mu)
            nonzero += base > 0
            for n in range(mu + 1, _MAX_ENUM_PERIODS + 1):
                assert count_configurations(pattern, n) == math.comb(n, mu) * base, (pattern.name, n)
        assert nonzero >= len(builtin_catalog()) + 5
