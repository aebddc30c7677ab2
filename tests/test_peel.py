"""Differential tests of the peeling pre-pass in front of the SIC sweep.

``run_sic_kernel`` resolves sparse collision components with
``receiver.peel`` and sweeps only the rest; the sweep alone on the whole
trace is the oracle. ``decoded`` and ``decided_w`` must agree bit for bit,
both those of ``run_sic_kernel`` and, outside the rest, ``peel``'s own
per-user arrays.
"""

import math

import numpy as np
import pytest

from irasim import _kernels, receiver
from irasim.channel import symbol_mi
from irasim.model import SystemConfig
from irasim.receiver import peel, run_sic_kernel, sweep_inputs
from irasim.traffic import generate_trace

from conftest import MIXES, edge_placed_trace, manual_trace


def sweep_alone(trace, cfg):
    decoded, decided_w, n_done, _ = _kernels.sic_sweep(*sweep_inputs(trace, cfg))
    assert n_done == trace.n_users
    return decoded, decided_w


def assert_same_as_sweep(trace, cfg):
    """Returns ``run_sic_kernel``'s outcome and the share of users ``peel``
    resolved."""
    decoded, decided_w = run_sic_kernel(trace, cfg)
    want_decoded, want_w = sweep_alone(trace, cfg)
    assert np.array_equal(decoded, want_decoded)
    assert np.array_equal(decided_w, want_w)
    peeled = peel(sweep_inputs(trace, cfg))
    if peeled is None:
        return decoded, decided_w, 0.0
    rest, peel_decoded, peel_w = peeled
    assert rest.shape == peel_decoded.shape == peel_w.shape == (trace.n_users,)
    assert np.array_equal(peel_decoded[~rest], want_decoded[~rest])
    assert np.array_equal(peel_w[~rest], want_w[~rest])
    return decoded, decided_w, float(np.mean(~rest))


def random_system(k, rng):
    vf = float(rng.uniform(10.0, 200.0))
    min_span = 1.0 + 1.0 / vf
    span = min_span if k % 5 == 0 else float(rng.uniform(min_span, 3.0))
    step = span if k % 7 == 0 else float(rng.uniform(0.01, span))
    snr_db = float(rng.uniform(3.0, 10.0))
    snr = 10.0 ** (snr_db / 10.0)
    if k % 6 == 0:  # every single overlap decodes
        rate = float(rng.uniform(0.1, symbol_mi(snr, 1)))
    elif k % 6 == 1:  # nothing ever decodes
        rate = float(rng.uniform(symbol_mi(snr, 0) * 1.001, symbol_mi(snr, 0) + 1.0))
    else:
        rate = float(rng.uniform(0.5, 3.0))
    return SystemConfig.from_db(snr_db, rate, vf, window_span=span, window_step=step)


def test_random_traces_match_the_sweep():
    rng = np.random.default_rng(20240)
    users = 0
    resolved = 0.0
    for k in range(1200):
        cfg = random_system(k, rng)
        load = float(np.exp(rng.uniform(math.log(0.01), math.log(1.0))))
        horizon = max(1.01 * cfg.window_length, 150.0 / load)
        trace = generate_trace(cfg, MIXES[k % 4], load, horizon, np.random.default_rng(k))
        if trace.n_users == 0:
            continue
        _, _, share = assert_same_as_sweep(trace, cfg)
        users += trace.n_users
        resolved += share * trace.n_users
    # the comparison is not vacuous: the pre-pass took a large part of the work
    assert resolved / users > 0.25


def test_edge_placed_traces_match_the_sweep():
    # replicas on the sweep's grid edges: the pre-pass's admission, last and
    # expiry steps, and the rest's sweep, must all take the whole trace's grid
    rng = np.random.default_rng(20_261_021)
    resolved = []
    for _ in range(60):
        cfg, trace, edge_users = edge_placed_trace(rng)
        decoded, _, share = assert_same_as_sweep(trace, cfg)
        assert decoded[edge_users].all()
        resolved.append(share)
    # the pre-pass ran on most traces, and the chains were left to the sweep
    assert sum(0.0 < r < 1.0 for r in resolved) > 40


@pytest.fixture(scope="module")
def cfg200():
    # window 600, step 20, first window start -600 for a first arrival at 0
    return SystemConfig.from_db(6.0, 1.5, 200.0)


def test_chain_decodes_at_the_step_of_its_cause(cfg200):
    # A decodes at step 3 through its clean replica at 50; B's first replica
    # is blocked by A's until then and decodes in the same step; C's first
    # replica, blocked by B's second, is admitted at step 6 with B gone
    trace = manual_trace(cfg200, [(0.0, 50.0), (0.3, 100.0), (100.3, 250.0)])
    decoded, decided_w, share = assert_same_as_sweep(trace, cfg200)
    assert decoded.tolist() == [True, True, True]
    assert decided_w.tolist() == [-540.0, -540.0, -480.0]
    assert share == 1.0


def test_partner_cancelled_after_last_chance_leaves_user_lost():
    # window of 21 sliding by 2: A is freed only when C decodes at step 19
    # (w = 17); B's replicas, pinned by A's, start before 17 and are lost
    cfg = SystemConfig.from_db(6.0, 1.5, 20.0, window_span=1.0 + 1.0 / 20.0)
    trace = manual_trace(cfg, [(0.0, 9.7, 18.0), (0.3, 10.0), (18.3, 36.3)])
    decoded, decided_w, share = assert_same_as_sweep(trace, cfg)
    assert decoded.tolist() == [True, False, True]
    assert decided_w[0] == decided_w[2] > 10.0
    assert decided_w[1] > 0.3 + cfg.vf_span  # lost once its frame left the window
    assert share == 1.0


def test_partial_overlap_decodes_next_to_active_partner(cfg200):
    # first replicas overlap by 0.3 and decode at admission despite each
    # other; the second replicas overlap by 0.7 and never decode
    trace = manual_trace(cfg200, [(0.0, 50.0), (0.7, 50.3)])
    decoded, decided_w, share = assert_same_as_sweep(trace, cfg200)
    assert decoded.tolist() == [True, True]
    assert decided_w.tolist() == [-580.0, -580.0]
    assert share == 1.0


def test_replicas_one_packet_apart_are_not_partners(cfg200):
    trace = manual_trace(cfg200, [(0.0, 50.0), (1.0, 50.3)])
    decoded, decided_w, share = assert_same_as_sweep(trace, cfg200)
    assert decoded.tolist() == [True, True]
    assert decided_w.tolist() == [-580.0, -580.0]
    assert share == 1.0


def test_admission_on_a_step_boundary_after_a_jump(cfg200):
    # B's first replica ends exactly at the window end of step 10; the sweep
    # jumps over the empty steps after A decodes and must land on step 10
    trace = manual_trace(cfg200, [(0.0, 3.0), (199.0, 202.0)])
    decoded, decided_w, share = assert_same_as_sweep(trace, cfg200)
    assert decoded.tolist() == [True, True]
    assert decided_w.tolist() == [-580.0, -400.0]
    assert share == 1.0


def test_replica_due_at_its_owners_expiry_step_is_too_late(cfg200):
    # first replicas block each other; A's second replica, placed past its
    # frame, is admitted at step 41, the step at which A expires (w = 220),
    # and expiry comes first; B's second replica comes later still
    trace = manual_trace(cfg200, [(0.0, 810.0), (0.3, 1200.0)])
    decoded, decided_w, share = assert_same_as_sweep(trace, cfg200)
    assert decoded.tolist() == [False, False]
    assert decided_w.tolist() == [220.0, 220.0]
    assert share == 1.0


def test_clean_replica_skipped_by_a_full_span_step():
    # window 75 advanced by 75: X's replica at 74.5 and Y's at 149.5 are
    # admitted only once the window start has passed them, and their other
    # replicas block each other, so both users are lost
    users = [(0.0, 10.0), (74.5, 101.3), (101.0, 149.5)]
    cfg = SystemConfig.from_db(6.0, 1.5, 50.0, window_span=1.5, window_step=1.5)
    decoded, _, share = assert_same_as_sweep(manual_trace(cfg, users), cfg)
    assert decoded.tolist() == [True, False, False]
    assert share == 1.0
    # with a finer step the same replicas are seen inside the window
    fine = SystemConfig.from_db(6.0, 1.5, 50.0, window_span=1.5, window_step=0.1)
    decoded, _, _ = assert_same_as_sweep(manual_trace(fine, users), fine)
    assert decoded.tolist() == [True, True, True]


def test_isolated_trace_is_resolved_by_the_pre_pass(cfg200):
    trace = manual_trace(cfg200, [(10.0 * u, 10.0 * u + 3.0) for u in range(60)])
    decoded, _, share = assert_same_as_sweep(trace, cfg200)
    assert decoded.all()
    assert share == 1.0


def test_no_sweep_when_the_pre_pass_resolves_everyone(cfg200, monkeypatch):
    # the chain of test_chain_decodes_at_the_step_of_its_cause leaves no
    # user to the sweep, so the sweep does not run at all
    trace = manual_trace(cfg200, [(0.0, 50.0), (0.3, 100.0), (100.3, 250.0)])
    want_decoded, want_w = sweep_alone(trace, cfg200)

    def no_sweep(geom):
        raise AssertionError("swept an empty rest")

    monkeypatch.setattr(receiver, "_sweep", no_sweep)
    decoded, decided_w = run_sic_kernel(trace, cfg200)
    assert np.array_equal(decoded, want_decoded) and np.array_equal(decided_w, want_w)


def test_dense_trace_is_left_to_the_sweep(cfg200):
    trace = generate_trace(cfg200, MIXES[1], 2.0, 2000.0, np.random.default_rng(3))
    assert peel(sweep_inputs(trace, cfg200)) is None
    assert_same_as_sweep(trace, cfg200)


def test_long_step_grid_is_left_to_the_sweep(monkeypatch):
    # a step of 5e-4 packets lays out about 2.4e6 grid steps, past the cap:
    # peel stands aside, and with the cap lifted its grid gives the same outcome
    cfg = SystemConfig.from_db(6.0, 1.5, 50.0, window_step=1e-5)
    trace = generate_trace(cfg, MIXES[0], 0.05, 1000.0, np.random.default_rng(4))
    n_steps = sweep_inputs(trace, cfg).n_steps
    assert n_steps > receiver._MAX_PEEL_STEPS
    assert assert_same_as_sweep(trace, cfg)[2] == 0.0
    monkeypatch.setattr(receiver, "_MAX_PEEL_STEPS", n_steps)
    assert assert_same_as_sweep(trace, cfg)[2] > 0.5


def test_asymmetric_neighbours_are_left_to_the_sweep(cfg200, monkeypatch):
    # s_e + 1.0 falls halfway between two floats and rounds down to 2.5, so
    # only the later replica sees the other within one packet. The symmetry
    # guard leaves both owners to the sweep; the users after them form a
    # stuck pair, which peel resolves.
    s_e, s_l = math.nextafter(1.5, 2.0), 2.5
    assert s_e + 1.0 == s_l and s_l - 1.0 < s_e
    trace = manual_trace(cfg200, [(s_e, s_e + 5.0), (s_l, s_l + 7.0), (20.0, 25.0), (20.3, 25.3)])
    args = sweep_inputs(trace, cfg200)
    assert args.nb_lo[1] == 0 and args.nb_hi[0] == 1  # sorted positions: s_e 0, s_l 1
    assert peel(args)[0].tolist() == [True, True, False, False]
    decoded, _, _ = assert_same_as_sweep(trace, cfg200)
    assert receiver.run_receiver(trace, cfg200, engine="reference")[0].tolist() == np.flatnonzero(decoded).tolist()
    # the guard taints each owner itself, not through the taint spread: with
    # one round allowed, the spread must find nothing left to taint
    monkeypatch.setattr(receiver, "_MAX_ROUNDS", 1)
    peeled = peel(args)
    assert peeled is not None and peeled[0].tolist() == [True, True, False, False]


def test_partner_expiring_at_the_last_step_is_left_to_the_sweep():
    # window 21 advanced by 20: V and W, and I and Z, block each other's
    # replicas, and V's third replica, placed past V's frame, blocks I's at
    # 45.0. Step 3 is both the first step whose window holds that replica
    # and the last whose window start it does not precede, and V expires at
    # step 3 too. Expiry runs first in a step, so I decodes at w = 39. The
    # pre-pass lets no expiry free a replica, so it leaves the trace to the
    # sweep.
    cfg = SystemConfig.from_db(6.0, 1.5, 20.0, window_span=1.05, window_step=1.0)
    users = [(0.0, 10.0, 45.3), (0.3, 10.3), (30.0, 35.0, 45.0), (30.3, 35.3)]
    trace = manual_trace(cfg, users)
    args = sweep_inputs(trace, cfg)
    w = args.w0 + np.arange(args.n_steps) * args.step_len
    expiry_v = int(w.searchsorted(args.vf_end[0], "right"))
    admit = int((w + args.win_len).searchsorted(45.0 + 1.0, "left"))
    last = int(w.searchsorted(45.0, "right")) - 1
    assert expiry_v == admit == last == 3
    assert peel(args) is None
    decoded, decided_w, _ = assert_same_as_sweep(trace, cfg)
    assert decoded.tolist() == [False, False, True, False]
    assert decided_w[2] == w[3] == 39.0
    assert receiver.run_receiver(trace, cfg, engine="reference")[0].tolist() == [2]
