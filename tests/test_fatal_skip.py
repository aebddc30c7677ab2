"""Differential tests of the sweep's fatal pre-test.

``receiver.sweep_inputs`` passes the sweep a fatal radius ``rad`` and, per
replica, the count of replicas starting strictly within ``rad`` of it; the
sweep never evaluates a replica whose count is positive. The oracle is the
same sweep on the same arguments with the test off (``rad = 0`` and zero
counts): ``decoded`` and ``decided_w`` must agree bit for bit.
"""

import math
import warnings

import numpy as np
import pytest

from irasim import _kernels
from irasim.channel import clean_fraction
from irasim.model import DegreeDistribution, SystemConfig
from irasim.receiver import _geometry, _restrict, peel, run_sic_kernel, sweep_inputs, with_fatal_counts
from irasim.traffic import TrafficTrace, generate_trace

from conftest import manual_trace

MIXES = (
    DegreeDistribution.regular(2),
    DegreeDistribution.regular(3),
    DegreeDistribution.from_pairs([(2, 0.263), (3, 0.344), (5, 0.393)]),
    DegreeDistribution.from_pairs([(2, 0.51), (4, 0.49)]),
)


def mi_level(snr, k):
    return math.log2(1.0 + snr / (1.0 + k * snr))


def skip_off(args):
    """The same sweep arguments with the fatal test switched off."""
    return args[:13] + (0.0, np.zeros_like(args[14]))


def assert_skip_is_exact(args):
    got = _kernels.sic_sweep(*args)
    want = _kernels.sic_sweep(*skip_off(args))
    assert got[2] == want[2] == args[4].shape[0]
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[3] == want[3]
    return got


def brute_fatal_counts(rep_start, rad):
    return np.array([
        sum(1 for j, t in enumerate(rep_start) if j != i and s - rad < t < s + rad)
        for i, s in enumerate(rep_start)
    ])


def random_system(k, rng):
    vf = float(rng.uniform(10.0, 200.0))
    min_span = 1.0 + 1.0 / vf
    span = min_span if k % 5 == 0 else float(rng.uniform(min_span, 3.0))
    step = span if k % 7 == 0 else float(rng.uniform(0.01, span))
    snr_db = float(rng.uniform(3.0, 10.0))
    snr = 10.0 ** (snr_db / 10.0)
    i0, i1 = mi_level(snr, 0), mi_level(snr, 1)
    kind = k % 8
    if kind == 0:  # phi = 0: one interferer is never fatal
        rate = float(rng.uniform(0.1, i1))
    elif kind == 1:  # phi = 1: nothing decodes
        rate = float(rng.uniform(i0 * 1.001, i0 + 1.0))
    elif kind == 2:  # phi = 1: only clean replicas decode
        rate = i0
    else:
        rate = float(rng.uniform(i1, i0))
    return SystemConfig.from_db(snr_db, rate, vf, window_span=span, window_step=step)


def test_random_traces_match_the_sweep_without_the_test():
    rng = np.random.default_rng(60606)
    regimes = {"phi0": 0, "partial": 0, "phi1": 0}
    switched_on = 0
    skipped = 0
    traces = 0
    for k in range(1100):
        cfg = random_system(k, rng)
        load = float(np.exp(rng.uniform(math.log(0.05), math.log(1.5))))
        horizon = max(1.01 * cfg.window_length, 120.0 / load)
        trace = generate_trace(cfg, MIXES[k % 4], load, horizon, np.random.default_rng(k))
        if trace.n_users == 0:
            continue
        args = sweep_inputs(trace, cfg)
        phi = clean_fraction(cfg.snr_linear, cfg.rate)
        rad, n_fatal = args[13], args[14]
        if phi == 0.0:
            regimes["phi0"] += 1
            assert rad == 0.0 and not n_fatal.any()
        else:
            regimes["phi1" if phi == 1.0 else "partial"] += 1
            # off only where phi is too small for the margin to dominate rounding
            assert 0.0 < rad < phi or (rad == 0.0 and phi < 1e-2)
            switched_on += rad > 0.0
        assert_skip_is_exact(args)
        traces += 1
        skipped += int(np.count_nonzero(n_fatal))
    assert traces >= 1000
    assert min(regimes.values()) >= 100, regimes
    assert switched_on >= 0.99 * (regimes["partial"] + regimes["phi1"])
    assert skipped > 0  # the test fired, so the comparison is not vacuous


def checked_sweep():
    """The plain sweep, built so that every ``avg_mi`` call asserts that no
    active replica within the fatal radius remains: the counts never fall
    below the truth, so every skipped evaluation stays skipped."""
    seen = {"rad": 0.0, "calls": 0}

    def hook(fn):
        if fn.__name__ != "avg_mi":
            return fn

        def avg_mi(rep_start, active, i, lo, hi, *rest):
            s, rad = rep_start[i], seen["rad"]
            fatal = [j for j in range(lo, hi) if j != i and active[j] and s - rad < rep_start[j] < s + rad]
            assert not fatal, f"replica {i} evaluated next to active fatal {fatal}"
            seen["calls"] += 1
            return fn(rep_start, active, i, lo, hi, *rest)

        return avg_mi

    sweep = _kernels._build_sweep(hook, memoryview)

    def run(args):
        seen["rad"] = args[13]
        seen["calls"] = 0
        out = sweep(*args)
        return out, seen["calls"]

    return run


def test_no_evaluation_next_to_an_active_fatal_neighbour():
    run = checked_sweep()
    rng = np.random.default_rng(7070)
    calls_on = calls_off = 0
    for k in range(120):
        cfg = random_system(8 * (k // 8) + 3 + k % 5, rng)  # 0 < phi < 1 and phi = 1
        load = float(np.exp(rng.uniform(math.log(0.2), math.log(1.5))))
        trace = generate_trace(cfg, MIXES[k % 4], load, max(1.01 * cfg.window_length, 150.0 / load),
                               np.random.default_rng(k))
        if trace.n_users == 0:
            continue
        args = sweep_inputs(trace, cfg)
        (decoded, decided_w, _, _), on = run(args)
        (want_decoded, want_w, _, _), off = run(skip_off(args))
        assert np.array_equal(decoded, want_decoded) and np.array_equal(decided_w, want_w)
        calls_on += on
        calls_off += off
    assert calls_on < 0.7 * calls_off


def test_decrement_uses_the_counting_expressions():
    # A and C block each other's replicas at 50 and at 60; B starts exactly
    # at fl(50 + rad), outside A's fatal range, and decodes through its clean
    # replica at 80. Cancelling B must leave A's count at 1 (C), so A is
    # never evaluated while C is active.
    cfg = SystemConfig.from_db(6.0, 1.5, 200.0)
    rad = with_fatal_counts(sweep_inputs(manual_trace(cfg, [(50.0, 60.0), (50.2, 60.0)]), cfg))[13]
    edge = float(np.float64(50.0) + rad)
    trace = manual_trace(cfg, [(50.0, 60.0), (edge, 80.0), (50.2, 60.0)])
    args = sweep_inputs(trace, cfg)
    # sorted: A at 50 (C fatal), C at 50.2 (A and B), B at the edge (C)
    assert args[13] == rad and args[14][:3].tolist() == [1, 2, 1]
    (decoded, _, _, _), _ = checked_sweep()(args)
    assert decoded.tolist() == [False, True, False]


def test_restricted_inputs_keep_valid_counts():
    cfg = SystemConfig.from_db(6.0, 1.5, 50.0)
    split = 0
    for seed in range(12):
        trace = generate_trace(cfg, MIXES[seed % 4], 0.1, 3000.0, np.random.default_rng(seed))
        geom = _geometry(trace, cfg)
        peeled = peel(geom)
        if peeled is None:
            continue
        rest = peeled[0]
        full = sweep_inputs(trace, cfg)
        restricted = with_fatal_counts(_restrict(geom, rest))
        assert restricted[13] == full[13] > 0.0
        assert np.array_equal(restricted[14], full[14][rest[full[1]]])
        split += 1
    assert split >= 6


@pytest.mark.parametrize("rate", [0.5, 1.5, 2.0, 2.5])
def test_counts_hold_the_replicas_strictly_within_the_radius(rate):
    cfg = SystemConfig.from_db(6.0, rate, 20.0)
    trace = generate_trace(cfg, MIXES[2], 1.0, 300.0, np.random.default_rng(9))
    args = sweep_inputs(trace, cfg)
    rep_start, nb_lo, nb_hi, rad, n_fatal = args[0], args[11], args[12], args[13], args[14]
    assert n_fatal.dtype == np.int32
    assert n_fatal.tolist() == brute_fatal_counts(rep_start, rad).tolist()
    if rate == 0.5:  # below I1: phi = 0, empty fatal ranges
        assert rad == 0.0 and not n_fatal.any()
        return
    # every fatal neighbour, and the replica itself, lies in the neighbour
    # range the sweep walks
    for i, s in enumerate(rep_start):
        fatal = np.flatnonzero((rep_start > s - rad) & (rep_start < s + rad))
        assert nb_lo[i] <= fatal.min() <= i <= fatal.max() < nb_hi[i]
    if rate == 2.5:  # at or above I0: every overlap is fatal
        assert rad == pytest.approx(1.0, rel=1e-8)


def _pair_outcome(cfg, base, offset):
    """Two users whose first replicas start ``offset`` apart at ``base``;
    their second replicas collide fully, so only the first ones can decode."""
    far = base + 50.0
    trace = manual_trace(cfg, [(base, far), (offset, far)])
    args = sweep_inputs(trace, cfg)
    got = assert_skip_is_exact(args)
    return args, got[0]


def _nudged(x, k):
    """``x`` moved by ``k`` ulps."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


@pytest.mark.parametrize("base", [0.0, 100.0, 3000.0])
def test_offsets_within_ulps_of_the_threshold(base):
    cfg = SystemConfig.from_db(6.0, 1.5, 200.0)
    phi = clean_fraction(cfg.snr_linear, cfg.rate)
    # a single interferer at phi +- a few ulps: inside the margin, so
    # never counted, and avg_mi decides the knife edge as before
    for k in range(-4, 5):
        args, _ = _pair_outcome(cfg, base, _nudged(base + phi, k))
        rad = args[13]
        assert 0.0 < rad < phi
        assert args[14][:2].tolist() == [0, 0]
    # at rad +- a few ulps the test starts to count, and nobody decodes
    for k in range(-4, 5):
        offset = _nudged(base + rad, k)
        args, decoded = _pair_outcome(cfg, base, offset)
        want = [int(offset < base + rad), int(base > offset - rad)]
        assert args[14][:2].tolist() == want
        assert not decoded.any()
    assert _pair_outcome(cfg, base, _nudged(base + rad, -1))[0][14][0] == 1


def test_guard_switches_the_test_off_near_1e9():
    cfg = SystemConfig.from_db(6.0, 1.5, 20.0)
    trace = generate_trace(cfg, MIXES[2], 0.75, 400.0, np.random.default_rng(4))
    near = sweep_inputs(trace, cfg)
    assert near[13] > 0.0 and near[14].any()
    shifted = TrafficTrace(
        arrival=trace.arrival + 1e9,
        degree=trace.degree,
        rep_ptr=trace.rep_ptr,
        rep_start=trace.rep_start + 1e9,
        horizon=trace.horizon,
        load=trace.load,
        vf_span=trace.vf_span,
    )
    args = sweep_inputs(shifted, cfg)
    assert args[13] == 0.0 and not args[14].any()
    assert_skip_is_exact(args)
    decoded, decided_w = run_sic_kernel(shifted, cfg)
    want = _kernels.sic_sweep(*skip_off(args))
    assert np.array_equal(decoded, want[0]) and np.array_equal(decided_w, want[1])


def test_receiver_emits_no_regime_warning_per_batch():
    snr = 10.0 ** 0.6
    cfg = SystemConfig.from_db(6.0, mi_level(snr, 0) + 0.25, 20.0)
    trace = generate_trace(cfg, MIXES[0], 0.5, 200.0, np.random.default_rng(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        args = sweep_inputs(trace, cfg)
        decoded, _ = run_sic_kernel(trace, cfg)
    assert args[13] > 0.0  # phi = 1, the test is on
    assert not decoded.any()
