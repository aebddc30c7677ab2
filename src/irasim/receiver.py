"""Sliding-window successive interference cancellation.

The receiver keeps a window of ``window_span`` virtual frames. Inside the
window it repeatedly decodes any fully contained replica whose average MI
carries the code rate, removing all replicas of a decoded user everywhere
(replica positions are known once the packet is decoded). When nothing
decodes any more, the window advances by ``window_step`` virtual frames;
users whose whole virtual frame has left the window are lost.

The package's receiver is the array receiver below. Its test oracle, the
step-by-step reference (:func:`sic_pass`, :func:`slide`) built on
:mod:`irasim.channel`, is reached through ``run_receiver(...,
engine="reference")``; the package does not export it. Both step the window
on one grid, ``w0 + k * step_length``, and classify alike: the fixed point
of exhaustive cancellation does not depend on the order in which decodable
replicas are picked, because cancelling only ever raises the MI of the rest.

The array receiver (:func:`run_sic_kernel`) sorts the replicas once
(:func:`sweep_inputs`), then resolves in closed form, with numpy, every user
whose collision component has at most one other replica overlapping each
replica (:func:`peel`, which also states why its outcome equals the sweep's
bit for bit). Only the remaining users go through the window sweep
of :mod:`irasim._kernels`, which fills in their entries of the pre-pass's
per-user arrays. At low load, the error-floor region, the pre-pass resolves
most users. Each replica gets the index range of the replicas that overlap
it, a symmetric relation in float arithmetic, and that of the replicas
starting within the fatal radius of it (:func:`sweep_inputs`), so the sweep
skips every MI evaluation that one active interferer already decides.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .channel import (
    avg_mutual_information,
    build_timeline,
    clean_fraction,
    is_decodable,
    symbol_mi,
)
from .model import SystemConfig, TimeInterval
from .traffic import TrafficTrace


class ReceiverState:
    """Mutable receiver bookkeeping over one trace. ``window`` is the window
    at step 0 of the step grid, which starts at ``w0 = window.begin``."""

    def __init__(self, window: TimeInterval, rep_start, rep_owner, vf_end, active) -> None:
        self.window = window
        self.w0 = window.begin
        self.steps = 0
        self.rep_start = rep_start
        self.rep_owner = rep_owner
        self.vf_end = vf_end
        self.active = active
        self.decoded_users: set[int] = set()
        self.lost_users: set[int] = set()

    def fully_windowed(self, i: int) -> bool:
        s = self.rep_start[i]
        return s >= self.window.begin and s + 1.0 <= self.window.end


def make_state(trace: TrafficTrace, cfg: SystemConfig) -> ReceiverState:
    rep_start, rep_owner, _ = _sorted_replicas(trace.rep_start, trace.degree)
    first = trace.arrival[0] if trace.n_users else 0.0
    w0 = first - cfg.window_length
    return ReceiverState(
        window=TimeInterval(w0, w0 + cfg.window_length),
        rep_start=rep_start,
        rep_owner=rep_owner,
        vf_end=trace.arrival + cfg.vf_span,
        active=np.ones(trace.n_replicas, dtype=bool),
    )


def _replica_mi(state: ReceiverState, i: int, cfg: SystemConfig) -> float:
    s = state.rep_start[i]
    replica = TimeInterval(s, s + 1.0)
    others = [
        TimeInterval(o, o + 1.0)
        for j, o in enumerate(state.rep_start)
        if j != i and state.active[j] and abs(o - s) < 1.0
    ]
    return avg_mutual_information(build_timeline(replica, others), cfg.snr_linear)


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
    """Advance the window to the next step of the kernel's grid, with the
    kernel's float expressions (adding the step at each slide drifts off the
    grid in the last bits), and declare users behind it lost.

    A lost user's replicas are dropped from the active set; everything they
    could have interfered with is behind the window as well, so this has no
    observable effect beyond bounding the state.
    """
    state.steps += 1
    w = state.w0 + state.steps * cfg.step_length
    state.window = TimeInterval(w, w + cfg.window_length)
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
    array kernel (default) or ``"reference"``, the step-by-step test oracle.
    """
    if engine == "reference":
        return _run_reference(trace, cfg)
    if engine != "kernel":
        raise ValueError(f"unknown engine {engine!r}")
    decoded, _ = run_sic_kernel(trace, cfg)
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


def _sorted_replicas(rep_start, degree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort replica starts given user-major, user ``u`` owning ``degree[u]``
    of them: the starts in ascending order, the owner of each sorted
    replica, and the sorted position of every replica in user-major order."""
    order = np.argsort(rep_start, kind="stable")
    n_rep = rep_start.shape[0]
    rep_owner = np.repeat(np.arange(degree.shape[0], dtype=np.int32), degree)[order]
    pos = np.empty(n_rep, dtype=np.int32)
    pos[order] = np.arange(n_rep, dtype=np.int32)
    return rep_start[order], rep_owner, pos


class SweepInputs(NamedTuple):
    """Arguments of :func:`irasim._kernels.sic_sweep`, in the order of its
    parameters, for one non-empty trace. Replicas are sorted by start time."""

    rep_start: np.ndarray  # replica starts, ascending
    rep_owner: np.ndarray  # the user of each replica
    user_ptr: np.ndarray  # user u owns entries user_ptr[u]:user_ptr[u+1] of rep_of_user
    rep_of_user: np.ndarray  # each user's replicas, in trace order, as sorted positions
    vf_end: np.ndarray  # end of each user's virtual frame, in arrival order
    w0: float  # window start at step 0 of the grid
    n_steps: int  # steps of the grid
    step_len: float  # window advance per step
    win_len: float  # window length
    mi_table: np.ndarray  # symbol MI under 0..N interferers, N = max(nb_hi - nb_lo)
    rate: float  # code rate
    nb_lo: np.ndarray  # replicas nb_lo[i]:nb_hi[i] overlap replica i, i included: with
    nb_hi: np.ndarray  # e = rep_start + 1.0, rep_start[j] < e[i] and e[j] > rep_start[i]
    f_lo: np.ndarray  # replicas f_lo[i]:f_hi[i], i included, start strictly within the fatal
    f_hi: np.ndarray  # radius of i; empty (0:0) where i overlaps no other, or with the test off


def sweep_inputs(trace: TrafficTrace, cfg: SystemConfig, users: np.ndarray | None = None) -> SweepInputs:
    """The sweep's arguments for one non-empty trace: its replicas, the
    receiver's step grid, the MI levels, the neighbour ranges and the fatal
    ranges. With a mask ``users``, which must select at least one user, they
    are those of the selected users alone, on the step grid of the whole
    trace: its window start ``w0``, and enough steps to classify them."""
    arrival, degree, rep_start, user_ptr = trace.arrival, trace.degree, trace.rep_start, trace.rep_ptr
    if users is not None:
        rep_start = rep_start[np.repeat(users, degree)]
        arrival = arrival[users]
        degree = degree[users]
        user_ptr = np.zeros(degree.shape[0] + 1, dtype=np.int64)
        np.cumsum(degree, out=user_ptr[1:])
    rep_start, rep_owner, pos = _sorted_replicas(rep_start, degree)
    vf_end = arrival + cfg.vf_span
    w0 = float(trace.arrival[0]) - cfg.window_length
    # both bounds read the one rounded end rep_start + 1.0, which makes the
    # relation symmetric; it is a temporary, and int32 halves the index
    # arrays the sweep holds next to its lists: on dense traces both set the
    # peak memory
    nb_lo = (rep_start + 1.0).searchsorted(rep_start, "right").astype(np.int32)
    nb_hi = rep_start.searchsorted(rep_start + 1.0, "left").astype(np.int32)
    span = nb_hi - nb_lo  # the replica itself included
    mi_table = np.array([symbol_mi(cfg.snr_linear, k) for k in range(int(span.max()) + 1)])
    rad = _fatal_radius(rep_start, mi_table, clean_fraction(cfg.snr_linear, cfg.rate), cfg.rate)
    f_lo = np.zeros(rep_start.shape[0], dtype=np.int32)
    f_hi = np.zeros(rep_start.shape[0], dtype=np.int32)
    if rad > 0.0:
        # a replica within rad lies in the neighbour range, so one alone there
        # keeps an empty range
        for a in range(0, rep_start.shape[0], _RANGE_BLOCK):
            i = a + np.flatnonzero(span[a:a + _RANGE_BLOCK] > 1)
            s = rep_start[i]
            f_lo[i] = rep_start.searchsorted(s - rad, "right")
            f_hi[i] = rep_start.searchsorted(s + rad, "left")
    return SweepInputs(
        rep_start=rep_start,
        rep_owner=rep_owner,
        user_ptr=np.ascontiguousarray(user_ptr),
        rep_of_user=pos,
        vf_end=vf_end,
        w0=w0,
        n_steps=int(np.ceil((float(vf_end[-1]) - w0) / cfg.step_length)) + 2,
        step_len=cfg.step_length,
        win_len=cfg.window_length,
        mi_table=mi_table,
        rate=cfg.rate,
        nb_lo=nb_lo,
        nb_hi=nb_hi,
        f_lo=f_lo,
        f_hi=f_hi,
    )


#: Unit roundoff of float64.
_U = 2.0**-53

#: Replicas per block of the fatal ranges, which bounds their temporaries.
_RANGE_BLOCK = 8192


def _fatal_radius(rep_start, mi_table, phi: float, rate: float) -> float:
    """Radius of the fatal pre-test of :mod:`irasim._kernels`, or 0.0 to
    switch it off. The margin and the bound it must dominate are derived in
    that module's docstring. It is computed for the replicas it is used on;
    for a subset of a trace's users, ``S`` and ``N`` there can only fall, so
    the test can only switch on, at the same radius ``phi - margin``."""
    m0, m1 = mi_table[0], mi_table[1]
    if not (phi > 0.0 and m0 > m1):
        return 0.0
    margin = phi * 1e-9
    e = math.ulp(max(abs(float(rep_start[0])), abs(float(rep_start[-1]))) + 1.0)
    n_seg = 2 * (mi_table.shape[0] - 1) + 1
    err = 2.0 * (e + _U) + (e * m1 + 8.0 * _U * (n_seg * m0 + rate)) / (m0 - m1)
    return phi - margin if 2.0 * err < margin else 0.0


#: Rounds after which the taint spread or the decode-step iteration of
#: :func:`peel` gives up and leaves the whole trace to the sweep. Giving up
#: is exact, only slower.
_MAX_ROUNDS = 64


#: Smallest share of users :func:`peel` must resolve for the sweep to run on
#: the rest alone, whose inputs :func:`sweep_inputs` then builds afresh. The
#: users it resolves are the ones the sweep handles fastest, so below this
#: share the pre-pass and the second build cost about what they save.
_MIN_PEELED_SHARE = 1 / 4

#: Longest step grid :func:`peel` lays out as an array. On a longer grid it
#: leaves the trace to the sweep, which visits only the steps where a user
#: expires or a replica is admitted. The shipped configs need about 2,100.
_MAX_PEEL_STEPS = 10**6


def peel(geom: SweepInputs) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Classify, in closed form, the users of sparse collision components.

    ``geom`` is the :func:`sweep_inputs` of a trace. A replica is *simple*
    when at most one other replica, its *partner*, overlaps it. A user
    owning a non-simple replica is *tainted*, and taint spreads over
    partner pairs until no untainted replica has a tainted partner. For
    the untainted users this finds exactly what the sweep would, and returns
    ``(rest, decoded, decided_w)``, each with one entry per user of the trace
    in arrival order: ``rest`` marks the tainted users, which the sweep still
    has to classify, and the other two hold the outcome of every untainted
    user; their entries at ``rest`` are left for the sweep to fill in. It
    returns ``None``, to leave everyone to the sweep, when fewer than
    ``_MIN_PEELED_SHARE`` of the users are untainted, when nothing can
    decode at the code rate, when the grid has more than ``_MAX_PEEL_STEPS``
    steps, and when a round cap or a guard below trips.

    Why the outcome is exact. On the sweep's grid ``w(k) = w0 + k*step_len``
    let ``A_i`` be the step at which replica ``i`` is admitted (first ``k``
    with ``s_i + 1 <= w(k) + win_len``), ``L_i`` the last step with
    ``s_i >= w(k)``, so that ``i`` can decode only at steps in
    ``[A_i, L_i]``, and ``E_u`` the step at which user ``u`` expires (first
    ``k`` with ``vf_end[u] < w(k)``). All three are binary searches on the
    grid ``w`` laid out with the sweep's own float expressions, which are
    non-decreasing in ``k``.

    * The MI of replica ``i`` changes only when the owner ``v`` of its
      partner is cancelled, by decoding or by expiry. Expiry comes too late
      to matter: ``v`` expires once ``vf_end < w``, so every replica
      overlapping one of ``v``'s starts before ``w`` and can no longer decode
      (``E_v > L_i``, checked as a guard).
    * The sweep evaluates ``i`` at ``A_i``, and again at every step in
      ``[A_i, L_i]`` at which ``v`` decodes, since that re-queues ``i``. The
      MI against the active partner and against none are computed here with
      the sweep's float operations, so every ``mi >= rate`` test agrees.
    * Hence ``i`` decodes at ``c_i = A_i`` if it decodes next to its active
      partner or has none, else at ``c_i = max(A_i, D_v)``, and never when
      ``c_i > L_i``. User ``u`` decodes at ``D_u = min c_i`` if that comes
      before ``E_u``; otherwise it is lost at ``E_u``.
    * The sweep's decode steps ``K`` solve these equations. The iteration
      from ``D = inf`` is monotone, so it stays at or above every solution,
      ``K`` included, and stops at a solution ``G >= K``. Conversely, go
      through the sweep's decodes in the order it makes them: each rests on
      a replica whose ``c_i`` uses only decodes made before it, which by
      induction ``G`` makes no later; so ``G <= K``, and ``G = K``.

    The sweep run on the tainted users alone classifies them as before:
    neither kind of user has the other's replicas in its neighbour ranges,
    so removing the untainted ones leaves the order of the stack operations
    on tainted replicas, and every MI they see, unchanged. Their inputs come
    from :func:`sweep_inputs` on their replicas alone: the neighbour ranges
    there hold the same replicas, as no tainted replica's range holds an
    untainted one (the relation is symmetric, so the untainted one would
    have the tainted replica as its partner); the grid keeps ``w0`` and
    ``step_len``; and the exact fatal pre-test can only switch on.
    """
    rep_start, rep_owner, nb_lo, nb_hi = geom.rep_start, geom.rep_owner, geom.nb_lo, geom.nb_hi
    n_users = geom.vf_end.shape[0]
    mi0, mi1 = geom.mi_table[0], geom.mi_table[1]
    if not mi0 >= geom.rate or geom.n_steps > _MAX_PEEL_STEPS:
        return None

    tainted = ~np.logical_and.reduceat((nb_hi - nb_lo <= 2)[geom.rep_of_user], geom.user_ptr[:-1])
    if np.count_nonzero(~tainted) < n_users * _MIN_PEELED_SHARE:
        return None
    nb_lo = nb_lo.astype(np.intp)  # index arrays below; int32 ones get converted at every use
    nb_hi = nb_hi.astype(np.intp)
    rep_owner = rep_owner.astype(np.intp)
    cand = np.flatnonzero(~tainted[rep_owner])
    lo = nb_lo[cand]
    hi = nb_hi[cand]
    partner = np.where(lo == cand, hi - 1, lo)  # the replica itself if alone
    owner = rep_owner[cand]
    partner_owner = rep_owner[partner]
    del lo, hi
    paired = np.flatnonzero(partner != cand)
    for _ in range(_MAX_ROUNDS):
        if n_users - np.count_nonzero(tainted) < n_users * _MIN_PEELED_SHARE:
            return None
        hit = paired[tainted[partner_owner[paired]] & ~tainted[owner[paired]]]
        if hit.shape[0] == 0:
            break
        tainted[owner[hit]] = True
    else:
        return None
    keep = ~tainted[owner]
    cand = cand[keep]
    partner = partner[keep]
    owner = owner[keep]
    partner_owner = partner_owner[keep]
    del keep, paired, hit

    never = geom.n_steps  # every user expires before the sweep's last step
    w = geom.w0 + np.arange(never) * geom.step_len
    expiry = w.searchsorted(geom.vf_end, "right")
    s = rep_start[cand]
    s_end = s + 1.0
    admit = (w + geom.win_len).searchsorted(s_end, "left")
    last = w.searchsorted(s, "right") - 1
    # avg_mi against the one active partner, operation by operation
    a = rep_start[partner]
    b = np.minimum(a + 1.0, s_end)
    a = np.maximum(a, s)
    acc = (a - s) * mi0 + (b - a) * mi1
    acc = np.where(b < s_end, acc + (s_end - b) * mi0, acc)
    overlap = partner != cand
    # the first guard leaves to the sweep a trace it cannot finish (it raises)
    if expiry[~tainted].max() >= never or np.any(overlap & (expiry[partner_owner] <= last)):
        return None
    waits = overlap & ~(acc >= geom.rate)  # decodes only once its partner is cancelled
    del a, b, acc, s, s_end, overlap, w

    # replicas that decode at admission, or never, bound D from the start;
    # the waiting ones are iterated from D = inf
    base = np.full(n_users, never, dtype=np.int64)
    np.minimum.at(base, owner[~waits], np.where(admit <= last, admit, never)[~waits])
    owner = owner[waits]
    partner_owner = partner_owner[waits]
    admit = admit[waits]
    last = last[waits]
    decode_at = np.full(n_users, never, dtype=np.int64)
    for _ in range(_MAX_ROUNDS):
        c = np.maximum(admit, decode_at[partner_owner])
        c[c > last] = never
        nxt = base.copy()
        np.minimum.at(nxt, owner, c)
        nxt[nxt >= expiry] = never
        if np.array_equal(nxt, decode_at):
            break
        decode_at = nxt
    else:
        return None

    decoded = decode_at < never
    return tainted, decoded, geom.w0 + np.where(decoded, decode_at, expiry) * geom.step_len


def _sweep(geom: SweepInputs) -> tuple[np.ndarray, np.ndarray]:
    """The sweep, fatal pre-test included, on the users of ``geom``."""
    decoded, decided_w, n_done, _ = _kernels.sic_sweep(*geom)
    n_users = geom.vf_end.shape[0]
    if n_done != n_users:
        raise RuntimeError(f"receiver sweep classified {n_done} of {n_users} users")
    return decoded, decided_w


def run_sic_kernel(trace: TrafficTrace, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Array receiver over one trace: :func:`peel`, then the sweep on the rest,
    whose outcome goes into the rest's entries of ``peel``'s arrays.

    Returns ``(decoded, decided_w)``: a per-user boolean array and, per user,
    the window start position at classification time.
    """
    if trace.n_users == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.float64)
    geom = sweep_inputs(trace, cfg)
    peeled = peel(geom)
    if peeled is None:
        return _sweep(geom)
    del geom  # the full inputs go before the rest's are built
    rest, decoded, decided_w = peeled
    if rest.any():
        decoded[rest], decided_w[rest] = _sweep(sweep_inputs(trace, cfg, rest))
    return decoded, decided_w
