"""Differential tests of the sweep's fatal pre-test.

``receiver.sweep_inputs`` passes the sweep, per replica, the index range
``[f_lo, f_hi)`` of the replicas starting strictly within the fatal radius
``rad`` of it, itself included (``conftest.fatal_radius`` recomputes
``rad``); at a replica's admission the sweep counts the active ones among
the others and never evaluates the replica while that count is positive.
The oracle is the same sweep on the same arguments with the test off (empty
ranges): ``decoded`` and ``decided_w`` must agree bit for bit.
"""

import math
import warnings

import numpy as np
import pytest

from irasim import _kernels
from irasim.channel import clean_fraction, symbol_mi
from irasim.model import SystemConfig
from irasim.receiver import peel, run_sic_kernel, sweep_inputs
from irasim.traffic import TrafficTrace, generate_trace

from conftest import MIXES, assert_overlap_ranges, edge_placed_trace, fatal_radius, manual_trace


def skip_off(args):
    """The same sweep arguments with the fatal test switched off."""
    return args._replace(f_lo=np.zeros_like(args.f_lo), f_hi=np.zeros_like(args.f_hi))


def assert_skip_is_exact(args):
    got = _kernels.sic_sweep(*args)
    want = _kernels.sic_sweep(*skip_off(args))
    assert got[2] == want[2] == args.vf_end.shape[0]
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[3] == want[3]
    return got


def brute_fatal_counts(rep_start, rad):
    return np.array([
        sum(1 for j, t in enumerate(rep_start) if j != i and s - rad < t < s + rad)
        for i, s in enumerate(rep_start)
    ])


def static_counts(args, rad):
    """``f_hi - f_lo - 1`` per replica, once every fatal range is checked:
    both bounds are int32, a non-empty range holds exactly the replicas
    starting strictly within ``rad``, the replica itself included, and an
    empty one is left only where no other replica overlaps the replica,
    where it counts 0."""
    rep_start, f_lo, f_hi = args.rep_start, args.f_lo, args.f_hi
    assert f_lo.dtype == f_hi.dtype == np.int32
    empty = f_lo == f_hi
    assert not (f_lo[empty] | f_hi[empty]).any()
    assert (empty == (args.nb_hi - args.nb_lo == 1)).all() if rad > 0.0 else empty.all()
    for i in np.flatnonzero(~empty):
        s = rep_start[i]
        fatal = np.flatnonzero((rep_start > s - rad) & (rep_start < s + rad))
        assert fatal.tolist() == list(range(f_lo[i], f_hi[i])), i
    return np.where(empty, 0, f_hi - f_lo - 1)


def random_system(k, rng):
    vf = float(rng.uniform(10.0, 200.0))
    min_span = 1.0 + 1.0 / vf
    span = min_span if k % 5 == 0 else float(rng.uniform(min_span, 3.0))
    step = span if k % 7 == 0 else float(rng.uniform(0.01, span))
    snr_db = float(rng.uniform(3.0, 10.0))
    snr = 10.0 ** (snr_db / 10.0)
    i0, i1 = symbol_mi(snr, 0), symbol_mi(snr, 1)
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
        rad, n_fatal = fatal_radius(args, cfg), args.f_hi - args.f_lo - 1
        if phi == 0.0:
            regimes["phi0"] += 1
            assert rad == 0.0 and not (args.f_lo.any() or args.f_hi.any())
        else:
            regimes["phi1" if phi == 1.0 else "partial"] += 1
            # off only where phi is too small for the margin to dominate rounding
            assert 0.0 < rad < phi or (rad == 0.0 and phi < 1e-2)
            switched_on += rad > 0.0
        assert_skip_is_exact(args)
        traces += 1
        skipped += int(np.count_nonzero(n_fatal > 0))
    assert traces >= 1000
    assert min(regimes.values()) >= 100, regimes
    assert switched_on >= 0.99 * (regimes["partial"] + regimes["phi1"])
    assert skipped > 0  # the test fired, so the comparison is not vacuous


def test_edge_placed_traces_match_the_sweep_without_the_test():
    # each chain's edge user decodes at the last step its replica is in the
    # window, once a fatal neighbour is cancelled in that very step
    rng = np.random.default_rng(20_261_022)
    skipped = 0
    for _ in range(60):
        cfg, trace, edge_users = edge_placed_trace(rng)
        args = sweep_inputs(trace, cfg)
        assert fatal_radius(args, cfg) > 0.0
        decoded = assert_skip_is_exact(args)[0]
        assert decoded[edge_users].all()
        skipped += int(np.count_nonzero(args.f_hi - args.f_lo > 1))
    assert skipped > 0


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

    sweep = _kernels._build_sweep(hook, memoryview, _kernels._as_list)

    def run(args, rad):
        seen["rad"] = rad
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
        (decoded, decided_w, _, _), on = run(args, fatal_radius(args, cfg))
        (want_decoded, want_w, _, _), off = run(skip_off(args), 0.0)
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
    rad = fatal_radius(sweep_inputs(manual_trace(cfg, [(50.0, 60.0), (50.2, 60.0)]), cfg), cfg)
    edge = float(np.float64(50.0) + rad)
    trace = manual_trace(cfg, [(50.0, 60.0), (edge, 80.0), (50.2, 60.0)])
    args = sweep_inputs(trace, cfg)
    # sorted: A at 50 (C fatal), C at 50.2 (A and B), B at the edge (C)
    assert fatal_radius(args, cfg) == rad and static_counts(args, rad)[:3].tolist() == [1, 2, 1]
    (decoded, _, _, _), _ = checked_sweep()(args, rad)
    assert decoded.tolist() == [False, True, False]


def test_fatal_neighbour_decoded_before_admission():
    # B decodes through its clean replica at 50 long before A's replica at
    # 150.2, within rad of B's replica at 150, is admitted. A's count, taken
    # at that admission, is 0, so A decodes there and not only later through
    # its replica at 250.
    cfg = SystemConfig.from_db(6.0, 1.5, 200.0)
    trace = manual_trace(cfg, [(50.0, 150.0), (150.2, 250.0)])
    args = sweep_inputs(trace, cfg)
    rad = fatal_radius(args, cfg)
    assert static_counts(args, rad).tolist() == [0, 1, 1, 0]  # sorted: 50, 150, 150.2, 250
    (decoded, decided_w, _, _), _ = checked_sweep()(args, rad)
    assert decoded.tolist() == [True, True]
    w = args.w0 + np.arange(args.n_steps) * args.step_len
    admitted = (w + args.win_len).searchsorted(args.rep_start + 1.0, "left")
    assert admitted[0] < admitted[1] == admitted[2] < admitted[3]
    assert decided_w.tolist() == [w[admitted[0]], w[admitted[2]]]
    assert_skip_is_exact(args)


def test_restricted_inputs_keep_valid_counts():
    # the inputs of the users peel leaves to the sweep, built afresh from
    # their replicas alone, keep the whole trace's grid origin, and their
    # neighbour ranges (the overlaps, a symmetric relation) and fatal ranges
    # hold exactly what a brute-force count finds
    cfg = SystemConfig.from_db(6.0, 1.5, 50.0)
    split = 0
    for seed in range(12):
        trace = generate_trace(cfg, MIXES[seed % 4], 0.1, 3000.0, np.random.default_rng(seed))
        full = sweep_inputs(trace, cfg)
        peeled = peel(full)
        if peeled is None:
            continue
        kept = peeled[0][full.rep_owner]
        rest = sweep_inputs(trace, cfg, peeled[0])
        assert rest.w0 == full.w0 and rest.step_len == full.step_len
        assert rest.n_steps <= full.n_steps
        assert np.array_equal(rest.rep_start, full.rep_start[kept])
        assert np.array_equal(rest.mi_table, full.mi_table[:rest.mi_table.shape[0]])
        starts = rest.rep_start
        assert_overlap_ranges(rest)
        # no kept replica had a dropped one in its range
        assert np.array_equal(rest.nb_hi - rest.nb_lo, (full.nb_hi - full.nb_lo)[kept])
        rad = fatal_radius(rest, cfg)
        assert rad == fatal_radius(full, cfg) > 0.0
        n_fatal = static_counts(rest, rad)  # int32 bounds included
        assert n_fatal.tolist() == brute_fatal_counts(starts, rad).tolist()
        want = _kernels.sic_sweep(*full)
        got = assert_skip_is_exact(rest)
        assert np.array_equal(got[0], want[0][peeled[0]])
        assert np.array_equal(got[1], want[1][peeled[0]])
        split += (n_fatal > 0).any()
    assert split >= 6


def test_counts_on_a_sparse_trace():
    # most replicas are alone in their neighbour range and are not searched
    cfg = SystemConfig.from_db(6.0, 1.5, 50.0)
    trace = generate_trace(cfg, MIXES[2], 0.05, 4000.0, np.random.default_rng(3))
    args = sweep_inputs(trace, cfg)
    alone = args.nb_hi - args.nb_lo == 1
    rad = fatal_radius(args, cfg)
    assert rad > 0.0 and np.mean(alone) > 0.5
    n_fatal = static_counts(args, rad)
    assert n_fatal.tolist() == brute_fatal_counts(args.rep_start, rad).tolist()
    assert n_fatal.any() and not n_fatal[alone].any()
    assert (args.f_lo[alone] == args.f_hi[alone]).all()  # not searched


@pytest.mark.parametrize("rate", [0.5, 1.5, 2.0, 2.5])
def test_counts_hold_the_replicas_strictly_within_the_radius(rate):
    cfg = SystemConfig.from_db(6.0, rate, 20.0)
    trace = generate_trace(cfg, MIXES[2], 1.0, 300.0, np.random.default_rng(9))
    args = sweep_inputs(trace, cfg)
    rep_start, nb_lo, nb_hi, rad = args.rep_start, args.nb_lo, args.nb_hi, fatal_radius(args, cfg)
    n_fatal = static_counts(args, rad)  # int32 bounds included
    assert n_fatal.tolist() == brute_fatal_counts(rep_start, rad).tolist()
    if rate == 0.5:  # below I1: phi = 0, empty fatal ranges
        assert rad == 0.0 and not (args.f_lo.any() or args.f_hi.any())
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
    return args, fatal_radius(args, cfg), got[0]


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
        args, rad, _ = _pair_outcome(cfg, base, _nudged(base + phi, k))
        assert 0.0 < rad < phi
        assert static_counts(args, rad)[:2].tolist() == [0, 0]
    # at rad +- a few ulps the test starts to count, and nobody decodes
    for k in range(-4, 5):
        offset = _nudged(base + rad, k)
        args, rad_k, decoded = _pair_outcome(cfg, base, offset)
        want = [int(offset < base + rad), int(base > offset - rad)]
        assert static_counts(args, rad_k)[:2].tolist() == want
        assert not decoded.any()
    args, _, _ = _pair_outcome(cfg, base, _nudged(base + rad, -1))
    assert args.f_hi[0] - args.f_lo[0] - 1 == 1


def test_guard_switches_the_test_off_near_1e9():
    cfg = SystemConfig.from_db(6.0, 1.5, 20.0)
    trace = generate_trace(cfg, MIXES[2], 0.75, 400.0, np.random.default_rng(4))
    near = sweep_inputs(trace, cfg)
    assert fatal_radius(near, cfg) > 0.0 and (near.f_hi - near.f_lo - 1 > 0).any()
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
    assert fatal_radius(args, cfg) == 0.0 and not (args.f_lo.any() or args.f_hi.any())
    assert_skip_is_exact(args)
    decoded, decided_w = run_sic_kernel(shifted, cfg)
    want = _kernels.sic_sweep(*skip_off(args))
    assert np.array_equal(decoded, want[0]) and np.array_equal(decided_w, want[1])


def test_receiver_emits_no_regime_warning_per_batch():
    snr = 10.0 ** 0.6
    cfg = SystemConfig.from_db(6.0, symbol_mi(snr, 0) + 0.25, 20.0)
    trace = generate_trace(cfg, MIXES[0], 0.5, 200.0, np.random.default_rng(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        args = sweep_inputs(trace, cfg)
        decoded, _ = run_sic_kernel(trace, cfg)
    assert fatal_radius(args, cfg) > 0.0  # phi = 1, the test is on
    assert not decoded.any()
