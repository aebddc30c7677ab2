import inspect

import numpy as np
import pytest

from irasim import _kernels
from irasim.channel import symbol_mi
from irasim.model import DegreeDistribution, SystemConfig
from irasim.receiver import (
    SweepInputs,
    _sweep,
    make_state,
    peel,
    run_receiver,
    run_sic_kernel,
    sic_pass,
    slide,
    sweep_inputs,
)
from irasim.traffic import generate_trace

from conftest import assert_overlap_ranges, edge_placed_trace, fatal_radius, manual_trace


@pytest.fixture(scope="module")
def cfg200():
    return SystemConfig.from_db(6.0, 1.5, 200.0)


def test_two_users_no_overlap_decoded_in_one_pass(cfg200):
    trace = manual_trace(cfg200, [(0.0, 50.0), (5.0, 60.0)])
    state = make_state(trace, cfg200)
    # window [-1, 599] contains every replica
    state.window = state.window.shifted(cfg200.window_length - 1.0)
    state, progressed = sic_pass(state, cfg200)
    assert progressed
    assert state.decoded_users == {0, 1}


def test_mutually_blocked_pair_is_lost(cfg200):
    # both replica pairs overlap by 0.7, beyond the tolerable fraction
    trace = manual_trace(cfg200, [(0.0, 50.0), (0.3, 50.3)])
    for engine in ("kernel", "reference"):
        decoded, lost = run_receiver(trace, cfg200, engine=engine)
        assert decoded.size == 0
        assert lost.tolist() == [0, 1]


def test_three_user_decode_chain(cfg200):
    # A decodes despite light overlap, freeing B's first replica;
    # B's remaining replicas pin both of C's until B is cancelled
    trace = manual_trace(
        cfg200,
        [
            (0.0, 1.4),
            (0.7, 60.0, 70.0),
            (59.7, 69.7),
        ],
    )
    for engine in ("kernel", "reference"):
        decoded, lost = run_receiver(trace, cfg200, engine=engine)
        assert decoded.tolist() == [0, 1, 2]
        assert lost.size == 0


def test_pairwise_triangle_all_lost(cfg200):
    # three degree-2 users, each replica overlapped 0.7 by another user's
    trace = manual_trace(cfg200, [(0.0, 10.0), (0.3, 20.0), (10.3, 20.3)])
    for engine in ("kernel", "reference"):
        decoded, lost = run_receiver(trace, cfg200, engine=engine)
        assert decoded.size == 0
        assert lost.tolist() == [0, 1, 2]


def test_single_user_always_decoded(cfg200):
    trace = manual_trace(cfg200, [(0.0, 42.0)])
    for engine in ("kernel", "reference"):
        decoded, lost = run_receiver(trace, cfg200, engine=engine)
        assert decoded.tolist() == [0]
        assert lost.size == 0


def test_empty_trace(cfg200, dist_x2):
    rng = np.random.default_rng(0)
    trace = generate_trace(cfg200, dist_x2, 1e-9, 1000.0, rng)
    assert trace.n_users == 0
    for engine in ("kernel", "reference"):
        decoded, lost = run_receiver(trace, cfg200, engine=engine)
        assert decoded.size == lost.size == 0
        assert decoded.dtype == lost.dtype == np.int64


def test_conservation_and_engine_equality(dist_lambda1, dist_lambda2):
    cfg = SystemConfig.from_db(6.0, 1.5, 20.0)
    for k in range(25):
        rng = np.random.default_rng(100 + k)
        g = 0.05 + 0.02 * k
        mix = dist_lambda1 if k % 2 else dist_lambda2
        trace = generate_trace(cfg, mix, g, 300.0, rng)
        dk, lk = run_receiver(trace, cfg, engine="kernel")
        dr, lr = run_receiver(trace, cfg, engine="reference")
        assert np.array_equal(dk, dr)
        assert np.array_equal(lk, lr)
        assert len(dk) + len(lk) == trace.n_users
        assert set(dk.tolist()).isdisjoint(lk.tolist())


def test_edge_placed_traces_engine_equality():
    # a replica starting exactly at w(k) decodes at step k or never, so the
    # reference must step the kernel's grid w0 + k * step_length to agree
    rng = np.random.default_rng(20_261_020)
    for _ in range(40):
        cfg, trace, edge_users = edge_placed_trace(rng)
        assert_overlap_ranges(sweep_inputs(trace, cfg))
        dk, lk = run_receiver(trace, cfg, engine="kernel")
        dr, lr = run_receiver(trace, cfg, engine="reference")
        assert np.isin(edge_users, dk).all()  # every chain reached its edge user
        assert np.array_equal(dk, dr) and np.array_equal(lk, lr), cfg


def test_sic_pass_idempotent(cfg200):
    trace = manual_trace(cfg200, [(0.0, 50.0), (0.3, 50.3), (5.0, 80.0)])
    state = make_state(trace, cfg200)
    state.window = state.window.shifted(cfg200.window_length - 1.0)
    state, first = sic_pass(state, cfg200)
    assert first  # the clean third user decodes
    state, second = sic_pass(state, cfg200)
    assert not second


def test_slide_classifies_users_behind_window(cfg200):
    trace = manual_trace(cfg200, [(0.0, 50.0), (0.3, 50.3)])
    state = make_state(trace, cfg200)
    # push the window far past both virtual frames in one artificial stride
    n_steps = int(np.ceil((250.0 - state.window.begin) / cfg200.step_length)) + 1
    for _ in range(n_steps):
        slide(state, cfg200)
    assert state.lost_users == {0, 1}
    assert not state.active.any()


def test_slide_ignores_decoded_users(cfg200):
    trace = manual_trace(cfg200, [(0.0, 50.0)])
    state = make_state(trace, cfg200)
    state.window = state.window.shifted(cfg200.window_length - 1.0)
    sic_pass(state, cfg200)
    for _ in range(200):
        slide(state, cfg200)
    assert state.decoded_users == {0}
    assert state.lost_users == set()


def test_fixed_point_order_independence():
    # randomized candidate order never changes the decoded set
    cfg = SystemConfig.from_db(6.0, 1.5, 10.0, window_span=6.0)
    mix = DegreeDistribution.from_pairs([(2, 0.7), (3, 0.3)])
    rng_order = np.random.default_rng(77)
    for k in range(100):
        rng = np.random.default_rng(500 + k)
        trace = generate_trace(cfg, mix, 0.35, cfg.window_length, rng)
        if trace.n_users == 0:
            continue
        state_a = make_state(trace, cfg)
        state_a.window = state_a.window.shifted(cfg.window_length - 1.0)
        state_b = make_state(trace, cfg)
        state_b.window = state_b.window.shifted(cfg.window_length - 1.0)
        sic_pass(state_a, cfg)
        sic_pass(state_b, cfg, order_rng=rng_order)
        assert state_a.decoded_users == state_b.decoded_users


def test_kernel_reports_decision_window(cfg200):
    trace = manual_trace(cfg200, [(0.0, 50.0), (0.3, 50.3), (500.0, 550.0)])
    decoded, decided_w = run_sic_kernel(trace, cfg200)
    assert decoded.tolist() == [False, False, True]
    assert np.all(np.isfinite(decided_w))
    # the stuck pair is declared lost once their frames leave the window
    assert decided_w[0] > 200.0
    assert decided_w[2] >= 500.0 - cfg200.window_length


def test_replicas_one_packet_apart_do_not_overlap(cfg200):
    # starts exactly one packet apart touch without overlapping, so no replica
    # counts the next one as a neighbour and every user decodes
    trace = manual_trace(cfg200, [(0.0, 50.0), (1.0, 51.0), (2.0, 52.0)])
    args = sweep_inputs(trace, cfg200)
    rep_start, nb_lo, nb_hi = args.rep_start, args.nb_lo, args.nb_hi
    assert rep_start.tolist() == [0.0, 1.0, 2.0, 50.0, 51.0, 52.0]
    assert nb_lo.tolist() == [0, 1, 2, 3, 4, 5]
    assert nb_hi.tolist() == [1, 2, 3, 4, 5, 6]
    for engine in ("kernel", "reference"):
        decoded, lost = run_receiver(trace, cfg200, engine=engine)
        assert decoded.tolist() == [0, 1, 2]
        assert lost.size == 0


def test_neighbour_ranges_bound_open_packet_interval(cfg200):
    # [nb_lo[i], nb_hi[i]) holds exactly the replicas overlapping replica i
    # in float arithmetic, itself included, and the relation is symmetric
    rng = np.random.default_rng(3)
    trace = generate_trace(cfg200, DegreeDistribution.regular(3), 1.5, 600.0, rng)
    assert_overlap_ranges(sweep_inputs(trace, cfg200))


def test_sweep_input_positions_read_by_the_benchmark(cfg200):
    # the record's fields are the sweep's parameters, in order, so
    # sic_sweep(*inputs) binds each by name; perfbench's span attributes read
    # the replicas, the users and the step count from positions 0, 2 and 6
    names = tuple(inspect.signature(_kernels.sic_sweep_python).parameters)
    assert SweepInputs._fields == names
    assert [names[0], names[2], names[6]] == ["rep_start", "user_ptr", "n_steps"]
    trace = manual_trace(cfg200, [(0.0, 50.0), (0.3, 50.3), (500.0, 550.0)])
    args = sweep_inputs(trace, cfg200)
    assert args.rep_start.tolist() == sorted(trace.rep_start.tolist())
    assert args.user_ptr.tolist() == trace.rep_ptr.tolist()
    w0 = trace.arrival[0] - cfg200.window_length
    vf_end = trace.arrival[-1] + cfg200.vf_span
    assert args.n_steps == int(np.ceil((vf_end - w0) / cfg200.step_length)) + 2


def test_mi_table_covers_the_largest_neighbour_range(cfg200):
    # 80 degree-2 users whose first replicas all start within one packet and
    # whose second replicas are isolated. Below I1 (6 dB, rate 0.8) phi = 0,
    # so no first replica is skipped as fatal: the last one admitted is
    # evaluated against its 79 active neighbours, which reads mi_table[79].
    cfg = SystemConfig.from_db(6.0, 0.8, cfg200.vf_span)
    n = 80
    trace = manual_trace(cfg, [(0.0125 * u, 30.0 + 1.5 * u) for u in range(n)])
    args = sweep_inputs(trace, cfg)
    assert fatal_radius(args, cfg) == 0.0 and not (args.f_lo.any() or args.f_hi.any())
    assert int(np.max(args.nb_hi - args.nb_lo)) == n

    seen = []

    def hook(fn):
        if fn.__name__ != "avg_mi":
            return fn

        def avg_mi(rep_start, active, i, lo, hi, *rest):
            seen.append(sum(1 for j in range(lo, hi) if j != i and active[j]))
            return fn(rep_start, active, i, lo, hi, *rest)

        return avg_mi

    decoded, decided_w, _, _ = _kernels._build_sweep(hook, memoryview, _kernels._as_list)(*args)
    assert max(seen) >= 64
    want = _kernels.sic_sweep(*args)
    assert np.array_equal(decoded, want[0]) and np.array_equal(decided_w, want[1])
    dk, lk = run_receiver(trace, cfg, engine="kernel")
    dr, lr = run_receiver(trace, cfg, engine="reference")
    assert np.array_equal(dk, dr) and np.array_equal(lk, lr)
    assert np.array_equal(dk, np.flatnonzero(decoded))


def test_mi_equal_to_the_rate_decodes(cfg200):
    # the earlier first replica's MI next to its active partner equals the
    # rate bit for bit: the rate is built with the sweep's own float
    # operations, d clean then 1 - d under one interferer. The partner's MI
    # rounds below the rate and the second replicas block each other, so the
    # pair decodes only through the test mi >= rate at equality.
    m0, m1 = symbol_mi(cfg200.snr_linear, 0), symbol_mi(cfg200.snr_linear, 1)
    s_i, s_j = 0.0, 0.45
    rate = (s_j - s_i) * m0 + ((s_i + 1.0) - s_j) * m1
    assert ((s_i + 1.0) - s_j) * m1 + ((s_j + 1.0) - (s_i + 1.0)) * m0 < rate
    cfg = SystemConfig.from_db(6.0, rate, cfg200.vf_span)
    assert cfg.snr_linear == cfg200.snr_linear
    trace = manual_trace(cfg, [(s_i, 50.0), (s_j, 50.3)])
    args = sweep_inputs(trace, cfg)
    assert fatal_radius(args, cfg) < s_j - s_i  # the fatal pre-test leaves the pair evaluated
    assert not peel(args)[0].any()  # run_sic_kernel leaves nobody to the sweep
    decoded, decided_w = run_sic_kernel(trace, cfg)
    assert decoded.tolist() == [True, True]
    swept = _sweep(args)
    assert np.array_equal(swept[0], decoded) and np.array_equal(swept[1], decided_w)
    dr, lr = run_receiver(trace, cfg, engine="reference")
    assert dr.tolist() == [0, 1] and lr.size == 0


def test_clean_replica_at_rate_i0_decodes_in_both_engines():
    # rate == I0, which SystemConfig.from_db accepts: only a replica with no
    # interferer decodes. User 0's first replica is alone, and its end
    # s + 1.0 rounds, so its length is not 1; both engines give it exactly
    # I0. The other two users block each other and user 0's second replica.
    snr = 10.0 ** 0.6
    cfg = SystemConfig.from_db(6.0, symbol_mi(snr, 0), 200.0)
    assert cfg.rate == symbol_mi(cfg.snr_linear, 0)
    s = 1.25 + 2.0**-52
    assert (s + 1.0) - s != 1.0
    trace = manual_trace(cfg, [(s, 100.0), (100.3, 150.0), (100.6, 150.3)])
    dk, lk = run_receiver(trace, cfg, engine="kernel")
    dr, lr = run_receiver(trace, cfg, engine="reference")
    assert dk.tolist() == dr.tolist() == [0]
    assert lk.tolist() == lr.tolist() == [1, 2]
