import inspect

import numpy as np
import pytest

from irasim import _kernels
from irasim.model import DegreeDistribution, SystemConfig
from irasim.receiver import (
    make_state,
    run_receiver,
    run_sic_kernel,
    sic_pass,
    slide,
    sweep_inputs,
)
from irasim.traffic import generate_trace

from conftest import manual_trace


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
    decoded, lost = run_receiver(trace, cfg200)
    assert decoded.size == 0 and lost.size == 0


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
    rep_start, nb_lo, nb_hi = args[0], args[11], args[12]
    assert rep_start.tolist() == [0.0, 1.0, 2.0, 50.0, 51.0, 52.0]
    assert nb_lo.tolist() == [0, 1, 2, 3, 4, 5]
    assert nb_hi.tolist() == [1, 2, 3, 4, 5, 6]
    for engine in ("kernel", "reference"):
        decoded, lost = run_receiver(trace, cfg200, engine=engine)
        assert decoded.tolist() == [0, 1, 2]
        assert lost.size == 0


def test_neighbour_ranges_bound_open_packet_interval(cfg200):
    # [nb_lo[i], nb_hi[i]) holds exactly the replicas starting strictly
    # within one packet of replica i, itself included
    rng = np.random.default_rng(3)
    trace = generate_trace(cfg200, DegreeDistribution.regular(3), 1.5, 600.0, rng)
    args = sweep_inputs(trace, cfg200)
    rep_start, nb_lo, nb_hi = args[0], args[11], args[12]
    for i, s in enumerate(rep_start):
        near = np.flatnonzero(np.abs(rep_start - s) < 1.0)
        assert near.tolist() == list(range(nb_lo[i], nb_hi[i]))


def test_sweep_input_positions_read_by_the_benchmark(cfg200):
    # perfbench's span attributes read the replicas, the users and the step
    # count of every sweep call from positions 0, 2 and 6
    names = list(inspect.signature(_kernels.sic_sweep_python).parameters)
    assert [names[0], names[2], names[6]] == ["rep_start", "user_ptr", "n_steps"]
    assert names[-2:] == ["rad", "n_fatal"]
    trace = manual_trace(cfg200, [(0.0, 50.0), (0.3, 50.3), (500.0, 550.0)])
    args = sweep_inputs(trace, cfg200)
    assert len(args) == len(names)
    assert args[0].tolist() == sorted(trace.rep_start.tolist())
    assert args[2].tolist() == trace.rep_ptr.tolist()
    w0 = trace.arrival[0] - cfg200.window_length
    vf_end = trace.arrival[-1] + cfg200.vf_span
    assert args[6] == int(np.ceil((vf_end - w0) / cfg200.step_length)) + 2
