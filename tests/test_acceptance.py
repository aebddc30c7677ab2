"""Acceptance suite: one pass/fail line per criterion.

Criteria 5 and 6 run the Monte Carlo receiver over a million counted users
per load point; with the compiled kernel a full run stays well inside the
stated runtime targets. Run with ``pytest tests/test_acceptance.py -v``.
"""

import math
import os

import numpy as np
import pytest

from irasim.errorfloor import (
    builtin_catalog,
    count_configurations,
    plr_floor,
    vp_count,
    vulnerable_fraction,
)
from irasim.harness import ExperimentConfig, sweep, wilson_interval
from irasim.model import DegreeDistribution, SystemConfig, TimeInterval
from irasim.channel import avg_mutual_information, build_timeline, is_decodable
from irasim.receiver import make_state, run_sic_kernel, sic_pass
from irasim.traffic import generate_trace

from conftest import manual_trace
from oracles import plr_floor_mp, plr_regular, plr_two_user, two_user_closed_form, two_user_pattern

RHO = 10**0.6
JOBS = min(8, os.cpu_count() or 1)

S200_R15 = SystemConfig.from_db(6.0, 1.5, 200.0)
S200_R20 = SystemConfig.from_db(6.0, 2.0, 200.0)
S100_R15 = SystemConfig.from_db(6.0, 1.5, 100.0)
X2 = DegreeDistribution.regular(2)
X3 = DegreeDistribution.regular(3)
LAMBDA2 = DegreeDistribution.from_pairs([(2, 0.51), (4, 0.49)])

_POINT_CACHE: dict = {}


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} failed: {label} {suffix}"


def _sim_point(system: SystemConfig, dist: DegreeDistribution, load: float, n_users: int = 1_000_000):
    key = (system.snr_linear, system.rate, system.vf_span, dist.entries, load, n_users)
    if key not in _POINT_CACHE:
        cfg = ExperimentConfig(
            system=system,
            distribution=dist,
            load_grid=(load,),
            min_users_per_point=n_users,
            max_lost_events=10**9,
            seed=20_250_801,
        )
        row = sweep(cfg, jobs=JOBS).rows[0]  # draws from point_seed(cfg.seed, 0)
        _POINT_CACHE[key] = (row.users, row.lost)
    return _POINT_CACHE[key]


def test_criterion_1_vulnerable_fraction_goldens():
    phi15 = vulnerable_fraction(RHO, 1.5)
    phi20 = vulnerable_fraction(RHO, 2.0)
    ok = (
        0.443 <= phi15 <= 0.446
        and 0.783 <= phi20 <= 0.786
        and vp_count(200.0, phi15) == 225
        and vp_count(200.0, phi20) == 127
        and vp_count(100.0, phi15) == 112
    )
    _report(1, "vulnerable fraction and period counts", ok, f"phi={phi15:.4f}/{phi20:.4f}")


def test_criterion_2_configuration_count_oracle():
    bad = []
    for pattern in builtin_catalog():
        for n in (6, 7, 8):
            got = count_configurations(pattern, n)
            want = math.comb(n, pattern.num_sets) * pattern.iso_count
            if got != want:
                bad.append((pattern.name, n, got, want))
    _report(2, "catalog vs brute-force enumeration, n=6..8", not bad, f"mismatches={bad}")


def test_criterion_3_internal_consistency():
    grid = np.linspace(0.01, 1.0, 10)
    worst = 0.0
    for degree in (2, 3):
        dist = DegreeDistribution.regular(degree)
        single = (two_user_pattern(degree),)
        for g in grid:
            full = plr_floor(g, S200_R15, dist)
            reg = plr_regular(g, S200_R15, degree)
            two = plr_two_user(g, S200_R15, degree)
            two_ref = plr_floor(g, S200_R15, dist, single)
            worst = max(worst, abs(full - reg) / full, abs(two - two_ref) / two)
    _report(3, "plr_floor == plr_regular == plr_two_user", worst <= 1e-12, f"worst rel={worst:.2e}")


def test_criterion_4_independent_oracle():
    got = plr_floor(0.1, S200_R15, X2)
    frozen = 4.30001148636926e-04  # mpmath, 60 digits, 400 Poisson terms
    live = plr_floor_mp(0.1, 200, 6.0, 1.5, [(2, 1.0)])
    rel_frozen = abs(got - frozen) / frozen
    rel_live = abs(got - live) / live
    s1_only = plr_floor(0.1, S200_R15, X2, (two_user_pattern(2),))
    closed = two_user_closed_form(0.1, 200, 225)
    rel_closed = abs(s1_only - closed) / closed
    ok = rel_frozen <= 5e-7 and rel_live <= 5e-7 and rel_closed <= 5e-11
    _report(
        4,
        "arbitrary-precision double sum and closed form",
        ok,
        f"rel_oracle={rel_live:.1e} rel_closed={rel_closed:.1e}",
    )


def _floor_agreement(num, label, system, dist, loads):
    details = []
    ok = True
    for g in loads:
        users, lost = _sim_point(system, dist, g)
        plr = lost / users
        analytic = plr_floor(g, system, dist)
        gap = abs(math.log10(plr) - math.log10(analytic))
        lo, hi = wilson_interval(lost, users, 0.99)
        wide_lo = plr - 2.0 * (plr - lo)
        wide_hi = plr + 2.0 * (hi - plr)
        inside = wide_lo <= analytic <= wide_hi
        ok = ok and gap <= 0.3 and inside
        details.append(f"G={g}: sim={plr:.3e} floor={analytic:.3e} dlog={gap:.3f} ci_ok={inside}")
    _report(num, label, ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_5_sim_vs_floor_ira2():
    _floor_agreement(5, "IRA-2 Tf=200 R=1.5 vs floor", S200_R15, X2, (0.05, 0.1, 0.2))


@pytest.mark.slow
def test_criterion_5_sim_vs_floor_lambda2():
    _floor_agreement(5, "0.51x^2+0.49x^4 Tf=200 R=1.5 vs floor", S200_R15, LAMBDA2, (0.1, 0.2))


@pytest.mark.slow
def test_criterion_6_regime_ordering():
    loads = (0.1, 0.2, 0.3)
    lines = []
    ok = True
    for g in loads:
        u2, l2 = _sim_point(S200_R15, X2, g)
        u3, l3 = _sim_point(S200_R15, X3, g)
        lo2, hi2 = wilson_interval(l2, u2, 0.95)
        lo3, hi3 = wilson_interval(l3, u3, 0.95)
        if hi3 < lo2:
            lines.append(f"G={g}: IRA-2 > IRA-3 confirmed")
        elif lo3 > hi2:
            ok = False
            lines.append(f"G={g}: ordering REVERSED ({l2}/{u2} vs {l3}/{u3})")
        else:
            lines.append(f"G={g}: SKIP, CIs overlap")
    for g in loads:
        u200, l200 = _sim_point(S200_R15, X2, g)
        u100, l100 = _sim_point(S100_R15, X2, g)
        lo200, hi200 = wilson_interval(l200, u200, 0.95)
        lo100, hi100 = wilson_interval(l100, u100, 0.95)
        if hi200 < lo100:
            lines.append(f"G={g}: Tf=100 > Tf=200 confirmed")
        elif lo200 > hi100:
            ok = False
            lines.append(f"G={g}: ordering REVERSED ({l100}/{u100} vs {l200}/{u200})")
        else:
            lines.append(f"G={g}: SKIP, CIs overlap")
    _report(6, "loss ordering across degree and frame length", ok, "; ".join(lines))


def test_criterion_7_receiver_property_suite():
    phi = vulnerable_fraction(RHO, 1.5)

    # order independence of the SIC fixed point over randomized windows
    cfg = SystemConfig.from_db(6.0, 1.5, 10.0, window_span=6.0)
    mix = DegreeDistribution.from_pairs([(2, 0.7), (3, 0.3)])
    rng_order = np.random.default_rng(2024)
    order_ok = True
    tested = 0
    k = 0
    while tested < 1000:
        rng = np.random.default_rng(10_000 + k)
        k += 1
        trace = generate_trace(cfg, mix, 0.4, cfg.window_length, rng)
        if trace.n_users == 0:
            continue
        tested += 1
        a = make_state(trace, cfg)
        a.window = a.window.shifted(cfg.window_length - 1.0)
        b = make_state(trace, cfg)
        b.window = b.window.shifted(cfg.window_length - 1.0)
        sic_pass(a, cfg)
        sic_pass(b, cfg, order_rng=rng_order)
        if a.decoded_users != b.decoded_users:
            order_ok = False
            break

    # MI never drops when an interferer is removed
    rng = np.random.default_rng(7)
    mono_ok = True
    for _ in range(10_000):
        n_others = int(rng.integers(1, 6))
        offsets = rng.uniform(-1.0, 1.0, n_others)
        replica = TimeInterval(0.0, 1.0)
        others = [TimeInterval(o, o + 1.0) for o in offsets]
        mi_all = avg_mutual_information(build_timeline(replica, others), RHO)
        drop = int(rng.integers(n_others))
        mi_less = avg_mutual_information(
            build_timeline(replica, others[:drop] + others[drop + 1 :]), RHO
        )
        if mi_less < mi_all - 1e-12:
            mono_ok = False
            break

    # single-interferer decodability flips exactly at overlap 1 - phi
    # (the vulnerable fraction phi is the clean fraction required by the
    # threshold equation, so overlap up to 1 - phi is survivable), in the
    # channel model and in the array kernel: two degree-2 users whose replica
    # pairs overlap by alpha, exactly one packet apart at alpha = 0
    grid_ok = True
    for alpha in np.linspace(0.0, 1.0, 100):
        replica = TimeInterval(0.0, 1.0)
        others = [TimeInterval(1.0 - alpha, 2.0 - alpha)] if alpha > 0 else []
        mi = avg_mutual_information(build_timeline(replica, others), RHO)
        want = bool(alpha <= 1.0 - phi)
        d = 1.0 - alpha
        decoded, _ = run_sic_kernel(manual_trace(S200_R15, [(0.0, 50.0), (d, 50.0 + d)]), S200_R15)
        if is_decodable(mi, 1.5) != want or decoded.tolist() != [want, want]:
            grid_ok = False
            break

    ok = order_ok and mono_ok and grid_ok
    _report(
        7,
        "order independence, MI monotonicity, overlap threshold",
        ok,
        f"order={order_ok} monotone={mono_ok} threshold={grid_ok}",
    )


def test_criterion_8_sweep_determinism(tmp_path):
    cfg = ExperimentConfig(
        system=SystemConfig.from_db(6.0, 1.5, 20.0),
        distribution=DegreeDistribution.regular(2),
        load_grid=(0.2, 0.35),
        min_users_per_point=20_000,
        max_lost_events=10**9,
        seed=4242,
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    sweep(cfg, jobs=1).write(a)
    sweep(cfg, jobs=2).write(b)
    identical = a.read_bytes() == b.read_bytes()
    _report(8, "byte-identical sweep outputs", identical)
