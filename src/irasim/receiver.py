"""Sliding-window successive interference cancellation.

The receiver keeps a window of ``window_span`` virtual frames. Inside the
window it repeatedly decodes any fully contained replica whose average MI
carries the code rate, removing all replicas of a decoded user everywhere
(replica positions are known once the packet is decoded). When nothing
decodes any more, the window advances by ``window_step`` virtual frames;
users whose whole virtual frame has left the window are lost.

Two interchangeable engines are provided: a transparent step-by-step
reference built on :mod:`irasim.channel`, and the array kernel from
:mod:`irasim._kernels` used for large Monte Carlo runs. Both produce the
same classification; the fixed point of exhaustive cancellation does not
depend on the order in which decodable replicas are picked, because
cancelling only ever raises the MI of the remaining replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .channel import avg_mutual_information, build_timeline, is_decodable
from .model import SystemConfig, TimeInterval
from .traffic import TrafficTrace


@dataclass
class ReceiverState:
    """Mutable receiver bookkeeping over one trace."""

    window: TimeInterval
    rep_start: np.ndarray
    rep_owner: np.ndarray
    vf_end: np.ndarray
    active: np.ndarray
    decoded_users: set[int] = field(default_factory=set)
    lost_users: set[int] = field(default_factory=set)
    packet_duration: float = 1.0

    @property
    def active_replicas(self) -> list[tuple[int, TimeInterval]]:
        return [
            (int(self.rep_owner[i]), TimeInterval(s, s + self.packet_duration))
            for i, s in enumerate(self.rep_start)
            if self.active[i]
        ]

    def fully_windowed(self, i: int) -> bool:
        s = self.rep_start[i]
        return s >= self.window.begin and s + self.packet_duration <= self.window.end


def make_state(trace: TrafficTrace, cfg: SystemConfig) -> ReceiverState:
    owners = np.repeat(np.arange(trace.n_users, dtype=np.int64), trace.degree)
    order = np.argsort(trace.rep_start, kind="stable")
    first = trace.arrival[0] if trace.n_users else 0.0
    w0 = first - cfg.window_length
    return ReceiverState(
        window=TimeInterval(w0, w0 + cfg.window_length),
        rep_start=trace.rep_start[order],
        rep_owner=owners[order],
        vf_end=trace.arrival + cfg.vf_duration,
        active=np.ones(trace.n_replicas, dtype=bool),
        packet_duration=cfg.packet_duration,
    )


def _replica_mi(state: ReceiverState, i: int, cfg: SystemConfig) -> float:
    t_p = state.packet_duration
    s = state.rep_start[i]
    replica = TimeInterval(s, s + t_p)
    others = [
        TimeInterval(o, o + t_p)
        for j, o in enumerate(state.rep_start)
        if j != i and state.active[j] and abs(o - s) < t_p
    ]
    return avg_mutual_information(build_timeline(replica, others), cfg.snr_linear, t_p)


def sic_pass(
    state: ReceiverState, cfg: SystemConfig, order_rng: np.random.Generator | None = None
) -> tuple[ReceiverState, bool]:
    """Decode-and-cancel until no replica in the window decodes.

    ``order_rng`` shuffles the candidate scan order; the resulting decoded set
    is the same either way. Returns the state and whether anyone was decoded.
    """
    progressed = False
    while True:
        candidates = [
            i
            for i in range(len(state.rep_start))
            if state.active[i]
            and state.rep_owner[i] not in state.decoded_users
            and state.fully_windowed(i)
        ]
        if order_rng is not None:
            order_rng.shuffle(candidates)
        hit = -1
        for i in candidates:
            if is_decodable(_replica_mi(state, i, cfg), cfg.rate):
                hit = i
                break
        if hit < 0:
            return state, progressed
        user = int(state.rep_owner[hit])
        state.decoded_users.add(user)
        state.active[state.rep_owner == user] = False
        progressed = True


def slide(state: ReceiverState, cfg: SystemConfig) -> ReceiverState:
    """Advance the window one step and declare users behind it lost.

    A lost user's replicas are dropped from the active set; everything they
    could have interfered with is behind the window as well, so this has no
    observable effect beyond bounding the state.
    """
    state.window = state.window.shifted(cfg.step_length)
    for u in range(len(state.vf_end)):
        if u in state.decoded_users or u in state.lost_users:
            continue
        if state.vf_end[u] < state.window.begin:
            state.lost_users.add(u)
            state.active[state.rep_owner == u] = False
    return state


def run_receiver(
    trace: TrafficTrace, cfg: SystemConfig, engine: str = "kernel"
) -> tuple[np.ndarray, np.ndarray]:
    """Classify every user of ``trace`` as decoded or lost.

    Returns sorted arrays ``(decoded_ids, lost_ids)``. ``engine`` selects the
    array kernel (default) or the step-by-step ``"reference"`` path.
    """
    if trace.n_users == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if engine == "reference":
        return _run_reference(trace, cfg)
    if engine != "kernel":
        raise ValueError(f"unknown engine {engine!r}")
    decoded, _, _ = run_sic_kernel(trace, cfg)
    ids = np.arange(trace.n_users, dtype=np.int64)
    return ids[decoded], ids[~decoded]


def _run_reference(trace: TrafficTrace, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    state = make_state(trace, cfg)
    n = trace.n_users
    while len(state.decoded_users) + len(state.lost_users) < n:
        sic_pass(state, cfg)
        slide(state, cfg)
    decoded = np.array(sorted(state.decoded_users), dtype=np.int64)
    lost = np.array(sorted(state.lost_users), dtype=np.int64)
    return decoded, lost


def sweep_inputs(trace: TrafficTrace, cfg: SystemConfig) -> tuple:
    """Arguments of :func:`irasim._kernels.sic_sweep` for one non-empty trace.

    Replicas are sorted by start time. Position 3 maps each user's replicas,
    in trace order, to their sorted positions. The last two entries give, per
    sorted replica ``i``, the index range ``[nb_lo[i], nb_hi[i])`` of the
    replicas starting strictly less than one packet away from it; a replica
    exactly one packet away touches ``i`` without overlapping it.
    """
    order = np.argsort(trace.rep_start, kind="stable")
    rep_start = np.ascontiguousarray(trace.rep_start[order])
    rep_owner = np.repeat(np.arange(trace.n_users, dtype=np.int64), trace.degree)[order]
    pos = np.empty(trace.n_replicas, dtype=np.int64)
    pos[order] = np.arange(trace.n_replicas)
    del order  # freed before the neighbour ranges are allocated
    vf_end = np.ascontiguousarray(trace.arrival + cfg.vf_duration)
    t_p = cfg.packet_duration
    nb_lo = np.searchsorted(rep_start, rep_start - t_p, side="right")
    nb_hi = np.searchsorted(rep_start, rep_start + t_p, side="left")

    w0 = float(trace.arrival[0]) - cfg.window_length
    step_len = cfg.step_length
    n_steps = int(np.ceil((float(vf_end[-1]) - w0) / step_len)) + 2
    return (
        rep_start,
        rep_owner,
        np.ascontiguousarray(trace.rep_ptr),
        pos,
        vf_end,
        w0,
        n_steps,
        step_len,
        cfg.window_length,
        cfg.snr_linear,
        cfg.rate,
        t_p,
        nb_lo,
        nb_hi,
    )


def run_sic_kernel(
    trace: TrafficTrace, cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array-kernel sweep over one trace.

    Returns ``(decoded, decided_w, order_of_user_replicas)`` where ``decoded``
    is a per-user boolean array and ``decided_w[u]`` the window start position
    at classification time.
    """
    n_users = trace.n_users
    if n_users == 0:
        return (
            np.zeros(0, dtype=bool),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.int64),
        )
    args = sweep_inputs(trace, cfg)
    decoded, decided_w, n_done = _kernels.sic_sweep(*args)
    if n_done != n_users:
        raise RuntimeError(
            f"receiver sweep classified {n_done} of {n_users} users"
        )
    return decoded, decided_w, args[3]
