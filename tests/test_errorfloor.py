import math
import random
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from irasim import errorfloor
from irasim.errorfloor import (
    _MAX_ENUM_PERIODS,
    _term_sums,
    MAX_POISSON_TERMS,
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
    pattern_term,
    plr_floor,
    vp_count,
    vulnerable_fraction,
    write_catalog,
)
from irasim.harness import parse_config_file
from irasim.model import DegreeDistribution, DegreeTooLargeForVF, SystemConfig

from oracles import (
    count_configurations_labelled,
    plr_floor_mp,
    plr_floor_per_m,
    plr_regular,
    plr_two_user,
    prob_user_in_pattern_per_m,
    profile_selection_count,
    two_user_closed_form,
    two_user_pattern,
)

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

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
        got = pattern_term(s1, 225, dist_x2)(2)
        assert got == pytest.approx(1.0 / (225 * 224), rel=1e-12)

    def test_too_few_users(self, dist_x2):
        s3 = builtin_catalog()[2]
        assert pattern_term(s3, 225, dist_x2)(2) == 0.0

    def test_missing_degree(self, dist_x2):
        s2 = builtin_catalog()[1]  # needs degree-3 users
        assert pattern_term(s2, 225, dist_x2)(5) == 0.0

    def test_stays_in_unit_interval(self, dist_lambda1, dist_lambda2):
        for dist in (dist_lambda1, dist_lambda2):
            for n_v in (112, 127, 225):
                for s in builtin_catalog():
                    for m in range(2, 51):
                        pr = pattern_term(s, n_v, dist)(m)
                        assert 0.0 <= pr <= 1.0

    def test_equals_per_m_oracle(self, dist_x2, dist_lambda1, dist_lambda2):
        # counts that are not 2**k or 3 * 2**k, so that reordering the
        # integer factors of a term changes its rounding
        extra = (CollisionPattern("d233-m3", (0, 1, 2), 3, 7), CollisionPattern("d2223-m4", (0, 3, 1), 4, 5))
        above_one = {}
        for dist in (dist_x2, dist_lambda1, dist_lambda2):
            for n_v in (4, 5, 112, 225):
                for s in builtin_catalog() + extra:
                    for m in range(2, 40):
                        got = pattern_term(s, n_v, dist)(m)
                        assert got == prob_user_in_pattern_per_m(m, s, n_v, dist)
                        above_one[n_v] = above_one.get(n_v, 0) + (got > 1.0)
        # the terms are unclamped; the floor core caps them (TestPerMOracle)
        assert above_one[4] > 0 and above_one[225] == 0
        pair = builtin_catalog()[0]
        assert pattern_term(pair, 2, dist_x2)(4) == 1.5
        assert _term_sums(pattern_term, (pair,), 2, dist_x2)(4) == (1.0, 1)

    def test_degree_above_num_sets_rejected(self):
        # two degree-3 users cannot share two periods: each needs three, so
        # the pattern cannot be built, and no floor form can sum it
        with pytest.raises(InfeasiblePattern, match="3 distinct periods"):
            CollisionPattern("x", (0, 0, 2), 2, 1)


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


class TestPerMOracle:
    """``plr_floor`` sets each pattern up once; the oracle recomputes every
    count for each ``m``. Same float operations, so ``==`` throughout."""

    @staticmethod
    def assert_same(load, cfg, dist, catalog=None):
        d_new, d_old = {}, {}
        got = plr_floor(load, cfg, dist, catalog, diagnostics=d_new)
        want = plr_floor_per_m(load, cfg, dist, catalog, diagnostics=d_old)
        assert got == want, (load, got, want)
        assert d_new == d_old
        return d_new

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_config_grids(self, path):
        cfg = parse_config_file(path)
        for g in cfg.load_grid:
            self.assert_same(g, cfg.system, cfg.distribution)

    def test_random_loads(self):
        cfgs = [parse_config_file(p) for p in CONFIGS]
        # the largest lam whose Poisson mixture stays under the term cap
        lam_max = (math.sqrt(144 + 4 * (MAX_POISSON_TERMS - 50)) - 12) ** 2 / 4
        rng = random.Random(20_261_019)
        m_terms = []
        for _ in range(200):
            cfg = rng.choice(cfgs)
            lam = math.exp(rng.uniform(math.log(1e-3), math.log(lam_max)))
            m_terms.append(self.assert_same(lam / cfg.system.vf_span, cfg.system, cfg.distribution)["m_terms"])
        irr1 = cfgs[[p.stem for p in CONFIGS].index("irr1_tf200_r15")]
        near_cap = self.assert_same(0.999 * lam_max / irr1.system.vf_span, irr1.system, irr1.distribution)
        assert max(m_terms) > MAX_POISSON_TERMS / 4
        assert near_cap["m_terms"] > 0.9 * MAX_POISSON_TERMS

    def test_custom_catalog_clamped(self):
        # three periods per frame: most terms exceed 1 and are capped
        cfg = SystemConfig.from_db(6.0, 2.0, 6.0)
        assert floor_params(cfg).n_v == 3
        dist = DegreeDistribution.from_pairs([(2, 0.6), (3, 0.4)])
        catalog = (
            CollisionPattern("d22-m2", (0, 2, 0), 2, 1),
            CollisionPattern("d223-m3", (0, 2, 1), 3, 5),
            CollisionPattern("d222-m3", (0, 3, 0), 3, 6),
            CollisionPattern("d333-m3", (0, 0, 3), 3, 2),
            CollisionPattern("d2233-m3", (0, 2, 2), 3, 40),
        )
        clamped = [self.assert_same(g, cfg, dist, catalog).get("clamped_terms", 0) for g in (0.05, 0.5, 2.0)]
        assert clamped[0] < clamped[1] < clamped[2]


class TestTermCache:
    """The floor core keeps the capped sum of each ``m`` across calls, for
    every form; a warm call must give the bits and diagnostics of a cold one."""

    @staticmethod
    def call(load, cfg, dist, catalog=None, form=plr_floor):
        diag = {}
        got = form(load, cfg, dist, catalog, diagnostics=diag)
        return got.hex(), diag

    def cold(self, load, cfg, dist, catalog=None, form=plr_floor):
        errorfloor._term_sums.cache_clear()
        return self.call(load, cfg, dist, catalog, form)

    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_warm_equals_cold_on_the_config_grids(self, descending):
        for path in CONFIGS:
            cfg = parse_config_file(path)
            want = {g: self.cold(g, cfg.system, cfg.distribution) for g in cfg.load_grid}
            errorfloor._term_sums.cache_clear()
            for g in sorted(cfg.load_grid, reverse=descending):
                assert self.call(g, cfg.system, cfg.distribution) == want[g], (path.stem, g)
            info = errorfloor._term_sums.cache_info()
            assert (info.misses, info.hits) == (1, len(cfg.load_grid) - 1)

    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_warm_equals_cold_where_terms_are_clamped(self, descending):
        cfg = SystemConfig.from_db(6.0, 2.0, 6.0)  # n_v = 3
        dist = DegreeDistribution.from_pairs([(2, 0.6), (3, 0.4)])
        catalog = (CollisionPattern("d22-m2", (0, 2, 0), 2, 1), CollisionPattern("d223-m3", (0, 2, 1), 3, 5))
        loads = (0.05, 0.5, 2.0, 6.0)
        want = {g: self.cold(g, cfg, dist, catalog) for g in loads}
        assert all(want[g][1]["clamped_terms"] > 0 for g in loads[1:])
        errorfloor._term_sums.cache_clear()
        for g in sorted(loads, reverse=descending):
            assert self.call(g, cfg, dist, catalog) == want[g]

    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_other_forms_warm_equals_cold_where_terms_are_clamped(self, descending):
        cfg = SystemConfig.from_db(6.0, 2.0, 6.0)  # n_v = 3
        dist = DegreeDistribution.from_pairs([(2, 0.6), (3, 0.4)])
        catalog = (CollisionPattern("d22-m2", (0, 2, 0), 2, 1), CollisionPattern("d223-m3", (0, 2, 1), 3, 5))
        forms = {  # the second argument and the catalog of each form
            "regular": (2, None, plr_regular),
            "two_user": (3, None, lambda g, cfg, degree, _, **kw: plr_two_user(g, cfg, degree, **kw)),
            "oracle": (dist, catalog, plr_floor_per_m),
        }
        loads = (0.05, 0.5, 2.0, 6.0)
        for name, (arg, cat, form) in forms.items():
            want = {g: self.cold(g, cfg, arg, cat, form) for g in loads}
            assert all(want[g][1]["clamped_terms"] > 0 for g in loads[1:]), name
            errorfloor._term_sums.cache_clear()
            for g in sorted(loads, reverse=descending):
                assert self.call(g, cfg, arg, cat, form) == want[g], (name, g)
            assert errorfloor._term_sums.cache_info().misses == 1, name

    def test_catalogs_keep_their_own_entries(self, tmp_path, cfg_tf200_r15, dist_lambda1):
        # the same names with one count changed: a key without the rows'
        # contents would hand the file's catalog the builtin's terms
        path = tmp_path / "cat.txt"
        write_catalog(path, [s._replace(iso_count=s.iso_count + 1) if s.name == "d223-m3" else s
                             for s in builtin_catalog()])
        loaded = load_catalog(path)
        errorfloor._term_sums.cache_clear()
        for g in (0.1, 0.4, 0.1, 0.05):
            for catalog in (None, loaded, None):
                got = plr_floor(g, cfg_tf200_r15, dist_lambda1, catalog)
                assert got == plr_floor_per_m(g, cfg_tf200_r15, dist_lambda1, catalog)
        # one table per catalog and term: plr_floor's and the oracle's
        info = errorfloor._term_sums.cache_info()
        assert (info.misses, info.hits, info.currsize) == (4, 20, 4)
        assert plr_floor(0.1, cfg_tf200_r15, dist_lambda1) < plr_floor(0.1, cfg_tf200_r15, dist_lambda1, loaded)

    def test_cache_is_bounded(self, monkeypatch, cfg_tf200_r15):
        # a table holds one sum for each m the mixture reached, computed once,
        # and the core keeps at most _TERM_TABLES tables
        computed = []
        real = errorfloor.pattern_term

        def counting(pattern, n_v, dist):
            at = real(pattern, n_v, dist)
            return lambda m: computed.append(m) or at(m)

        def reached(result):  # each m of the mixture, once per pattern
            return [m for m in range(2, result[1]["m_terms"] + 2) for _ in range(3)]

        monkeypatch.setattr(errorfloor, "pattern_term", counting)
        dist = DegreeDistribution.regular(2)  # three feasible patterns
        errorfloor._term_sums.cache_clear()
        first = self.call(0.3, cfg_tf200_r15, dist)
        assert computed == reached(first)
        assert self.call(0.3, cfg_tf200_r15, dist) == first
        assert self.call(0.1, cfg_tf200_r15, dist)[1]["m_terms"] < first[1]["m_terms"]
        assert computed == reached(first)
        higher = self.call(0.6, cfg_tf200_r15, dist)
        assert computed == reached(higher)
        assert errorfloor._term_sums.cache_info().currsize == 1
        monkeypatch.setattr(errorfloor, "pattern_term", real)
        assert self.cold(0.3, cfg_tf200_r15, dist) == first
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            plr_floor(0.3, cfg_tf200_r15, DegreeDistribution.from_pairs([(2, p), (3, 1.0 - p)]))
        assert errorfloor._term_sums.cache_info().currsize == errorfloor._TERM_TABLES


class TestSpecialisations:
    def test_every_form_checks_the_pair(self):
        # three replicas cannot fit a frame of two packets; every form used to
        # return about 1.5e-7 here, where the simulation rejects the pair
        cfg, dist = SystemConfig.from_db(6.0, 0.87, 2.0), DegreeDistribution.regular(3)
        assert floor_params(cfg).n_v > 0
        for form in (lambda: plr_floor(0.1, cfg, dist), lambda: plr_regular(0.1, cfg, 3),
                     lambda: plr_two_user(0.1, cfg, 3)):
            with pytest.raises(DegreeTooLargeForVF, match="3 replicas"):
                form()

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

    def test_degree_above_num_sets_rejected(self, tmp_path):
        path = tmp_path / "cat.txt"
        path.write_text("d22-m2 0,2 2 1\nx 0,0,2 2 1\n")
        with pytest.raises(FloorError, match=r"cat.txt:2: .*3 distinct periods"):
            load_catalog(path)


def random_patterns(seed, count, *, extra_periods, oracle_budget=None):
    """Distinct seeded ``(pattern, n_periods)`` cases: 1-5 users of degree
    2-5, ``num_sets`` from the largest degree, the least a pattern may
    occupy, to 5, and ``n_periods`` up to ``extra_periods`` above it.

    ``oracle_budget`` bounds the labelled oracle's search, the product of the
    users' mask counts. Raises ``ValueError`` when fewer than ``count``
    distinct cases exist.
    """

    def eligible(degrees, n):
        return oracle_budget is None or math.prod(math.comb(n, d) for d in degrees) <= oracle_budget

    available = sum(
        eligible(degrees, n)
        for k in range(1, 6)
        for degrees in combinations_with_replacement(range(2, 6), k)
        for mu in range(max(degrees), min(5, sum(degrees) // 2) + 1)
        for n in range(mu, mu + extra_periods + 1)
    )
    if count > available:
        raise ValueError(f"{count} distinct cases asked for, {available} exist")
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        degrees = sorted(rng.randint(2, 5) for _ in range(rng.randint(1, 5)))
        lo, hi = max(degrees), min(5, sum(degrees) // 2)
        if lo > hi:
            continue
        mu = rng.randint(lo, hi)
        n = rng.randint(mu, mu + extra_periods)
        if eligible(degrees, n):
            seen.add((tuple(degrees), mu, n))
    cases = []
    for degrees, mu, n in sorted(seen):
        profile = tuple(degrees.count(l) for l in range(1, 6))
        cases.append((CollisionPattern(f"r{''.join(map(str, degrees))}-m{mu}", profile, mu, 1), n))
    return cases


def test_random_patterns_refuses_more_cases_than_exist():
    assert len(random_patterns(1, 260, extra_periods=2, oracle_budget=20_000)) == 260
    with pytest.raises(ValueError, match="261 distinct cases asked for, 260 exist"):
        random_patterns(1, 261, extra_periods=2, oracle_budget=20_000)


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
        cases = random_patterns(20_261_018, 200, extra_periods=2, oracle_budget=20_000)
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
        patterns += [p for p, _ in random_patterns(7, 30, extra_periods=0)]
        nonzero = 0
        for pattern in patterns:
            mu = pattern.num_sets
            base = count_configurations(pattern, mu)
            nonzero += base > 0
            for n in range(mu + 1, _MAX_ENUM_PERIODS + 1):
                assert count_configurations(pattern, n) == math.comb(n, mu) * base, (pattern.name, n)
        assert nonzero >= len(builtin_catalog()) + 5

    @pytest.mark.parametrize(
        "degrees,n",
        [
            # the labelled oracle walks every product of the users' masks,
            # so the cases stay near 10**5 leaves (10**6 for the last one)
            ((3, 3, 3, 3, 3), 5),
            ((3, 3, 3, 3, 5, 5), 5),
            ((2, 2, 2, 2, 5), 5),
            ((2, 2, 2, 3, 4), 5),
            ((2, 2, 2, 2, 2), 5),
            ((2, 2, 2, 2, 2), 6),
        ],
        ids=lambda x: "".join(map(str, x)) if isinstance(x, tuple) else f"n{x}",
    )
    def test_matches_labelled_oracle_mu5(self, degrees, n):
        # runs of up to four interchangeable users after the fixed first one,
        # and profiles whose count is 0
        pattern = CollisionPattern("r", tuple(degrees.count(l) for l in range(1, 6)), 5, 1)
        assert count_configurations(pattern, n) == count_configurations_labelled(pattern, n)

    @pytest.mark.parametrize("name,n", [("d22-m2", 9), ("d22-m2", 10), ("d2222-m4", 9)])
    def test_identical_masks_past_the_builtin_oracle_range(self, name, n):
        # the second of two users may take the first one's mask; within a
        # run of three degree-2 users the enumeration skips repeated masks,
        # which the oracle tries and rejects as a stuck pair
        pattern = next(p for p in builtin_catalog() if p.name == name)
        assert count_configurations(pattern, n) == count_configurations_labelled(pattern, n)
