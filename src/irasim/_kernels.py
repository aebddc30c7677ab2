"""Hot inner loop of the sliding-window SIC receiver.

The sweep is compiled with numba when available and runs the identical
code as plain Python otherwise (same results). Both variants are always
exported, so that perfbench's ``oracle_problems`` can compare them directly:

* ``sic_sweep``          active implementation (compiled when available)
* ``sic_sweep_python``   plain-Python build of the same code
* ``sic_sweep_compiled`` numba build, or None when numba is unavailable

Both builds take numpy arrays; ``receiver.SweepInputs`` names every
parameter of the sweep, in order. The caller passes, per replica, the index
range ``[nb_lo[i], nb_hi[i])`` of the replicas starting within one packet of
replica ``i``, so the sweep never searches for neighbours. The compiled
build works on numpy arrays throughout. The plain build holds the flags
``active``, ``queued`` and ``decoded``, the ``mi_table`` and ``avg_mi``'s
event buffers as Python lists, which index fastest, and reads and writes
every other array through a ``memoryview`` of its buffer, which yields
Python scalars about twice as fast as numpy indexing, with no copy and no
change in the arithmetic. A list costs 8 bytes an entry, so it holds only
flags and short arrays: as lists, the per-replica index and float arrays
would raise the peak memory of a dense batch by more than half.

The sweep visits only the steps at which something can happen. Every step
ends with an empty candidate stack, and a step that neither expires a user
nor admits a replica starts with one too, so it does nothing. After each
step the sweep therefore jumps to a lower bound of the next expiry and the
next admission step, estimated from ``vf_end`` and ``rep_start`` of the next
user and replica in line; each visited step still applies the exact window
tests. This matters when the receiver has resolved most users of a sparse
trace beforehand (``receiver.peel``) and sweeps the few that remain on the
full trace's step grid. The sweep returns ``(decoded, decided_w,
n_classified, n_visited)``, the last being the number of steps executed.

The loop tests none of its own invariants: (a) every step starts with an
empty stack, as the cancel loop runs until it is, so no replica is queued
when it is admitted; (b) outside the cancellation of one user, a replica is
active exactly when its owner is unclassified, as decoding and expiry
deactivate all of the owner's replicas and expiry runs only on an empty
stack; (c) every queued replica has been admitted (a re-queue needs ``nb <
admit``) and ``w_end = w0 + step*step_len + win_len`` never falls as
``step`` grows (each float operation in it is monotone), so it still ends
inside the window; (d) a replica has at most ``N - 1`` interferers, ``N =
max(nb_hi - nb_lo)`` the largest neighbour range, so the caller's
``mi_table``, which holds at least ``m_0 .. m_N``, covers every level.

Times are in packet durations, so every replica lasts exactly 1.

Fatal pre-test. One equal-power interferer starting less than ``phi``
from a replica keeps the replica's average MI below the rate (``phi`` from
``channel.clean_fraction``), and more interferers only lower it. The caller
passes a radius ``rad`` a little below ``phi`` and, per replica ``i``,
the index range ``[f_lo[i], f_hi[i])`` of its fatal set ``F(i) = {j != i :
s_j > fl(s_i - rad) and s_j < fl(s_i + rad)}`` and ``i`` itself (``s`` =
``rep_start``, ``fl`` = float64 rounding; two ``searchsorted`` calls), or
an empty range where no other replica starts within one packet of ``i``,
so that ``F(i)`` is empty. The sweep keeps its own count ``n_fatal[i]`` of
the *active* replicas in ``F(i)``, exact from the admission of ``i`` on for
as long as ``i`` can still be evaluated (active, not yet behind the window
start), and nothing lowers it before that admission:

* It takes the count when it admits ``i`` active, by counting the active
  replicas in ``[f_lo[i], f_hi[i])`` other than ``i``, but only where the
  static size ``f_hi[i] - f_lo[i] - 1`` of ``F(i)`` is positive; otherwise
  the count is 0. So the count is exact at admission, whatever decoded or
  expired before it.
* From then on it falls only on decodes: when the owner of ``r`` decodes,
  the sweep decrements ``n_fatal[nb]`` for the admitted ``nb < admit`` in
  ``r``'s neighbour range with ``s_r > s_nb - rad and s_r < s_nb + rad``
  (the same float expressions as the searches) that can still be evaluated
  and are not queued, as a queued count is already zero. The loop stops at
  the admission edge, and a replica of ``r``'s owner whose whole neighbour
  range lies beyond it costs no loop at all.
* Expiry needs no decrement, as a user expires once ``vf_end < w``, after
  the last start ``vf_end - 1`` of its replicas, so any replica within
  ``rad <= 1 - margin`` of one is behind ``w``.

A replica with a positive count is never pushed, neither at admission nor
when a neighbour decodes; it is pushed once a decode brings its count to 0.
Only evaluations that fail are dropped, and every replica is still
evaluated after the last decode in the step that raises its MI; since
cancelling only raises the MI, each step decodes the same set of users, so
``decoded`` and ``decided_w`` are bit-identical to the sweep without the
test (``rad = 0`` with empty ranges, which ``receiver`` also passes when the
test is off; no count is taken and no range test holds then).

Why the test is sound in float64. Let ``u = 2**-53``, ``S`` the largest
``|s_i|`` plus 1, ``e = ulp(S)`` (every rounded position errs by at most
``e/2``), ``m_k`` the sweep's ``mi_table`` (``m_0 = I0``, ``m_1 = I1`` bit
for bit as in ``clean_fraction``; correctly rounded, monotone operations
make ``m_k`` non-increasing), ``N`` the last index of ``mi_table`` (d) and
``margin = phi * 1e-9``, ``rad = phi - margin``.

* ``j`` in ``F(i)`` means ``|s_j - s_i| < rad + e/2``. As ``rad <= 1 -
  margin``, ``j`` lies in ``i``'s neighbour range and ``i`` in ``j``'s once
  ``margin > e + u``: every count is taken and decremented exactly.
* With ``j`` in ``F(i)`` active, ``avg_mi`` sees ``j`` with a positive
  overlap. On the rounded positions it uses, the clean part of ``i`` is at
  most ``|s_j - s_i| + e`` long, everything else carries at least one
  interferer, so the exact sum over those positions is below ``(1 + e/2)
  * m_1 + (rad + 1.5e) * (m_0 - m_1)``. With ``phi * (m_0 - m_1) <= (rate
  - m_1) * (1 + 4u)`` (the rounded quotient) and the summation error of at
  most ``2N + 1`` segments, ``avg_mi < rate`` whenever ``margin`` exceeds
  ``err = 2(e + u) + (e*m_1 + 8u*((2N + 1)*m_0 + rate)) / (m_0 - m_1)``.

``receiver.sweep_inputs`` switches the test off (``rad = 0``) unless
``margin > 2 * err``, and when ``phi = 0``. At 6 dB and rate 1.5 on the
benchmark's traces (``S`` about 4e4) ``err`` is about 2e-11 against a
margin of 4.4e-10; the test stays on up to ``S`` about 5e5, and near ``S =
1e9`` the position rounding alone exceeds the margin. ``phi = 1`` (rate at
or above ``I0``) makes every overlap of more than ``margin`` fatal.
"""

from __future__ import annotations

import math

import numpy as np


def _identity(a):
    return a


def _as_list(a):
    return a.tolist()  # numpy array or memoryview alike


def _build_sweep(jit, view, hold):
    """Build the sweep with ``jit`` applied to every stage, ``hold`` making
    the per-element state it keeps as a list in the plain build and ``view``
    wrapping every other array before element access."""

    @jit
    def avg_mi(rep_start, active, i, lo, hi, mi_table, ev_a, ev_b):
        # Average MI of replica i against every active replica in [lo, hi),
        # those starting within one packet of it; same-owner replicas are
        # never there, as placement keeps them a packet apart.
        s = rep_start[i]
        s_end = s + 1.0
        k = 0
        for j in range(lo, hi):
            if j == i or not active[j]:
                continue
            a = rep_start[j]
            b = a + 1.0
            if a < s:
                a = s
            if b > s_end:
                b = s_end
            if b <= a:
                continue
            ev_a[k] = a
            ev_b[k] = b
            k += 1
        if k == 0:
            return mi_table[0]
        # Both event lists are already ascending, since rep_start is sorted:
        # replicas j < i contribute a = s and b = rep_start[j] + 1 <= s_end,
        # replicas j > i contribute a = rep_start[j] and b = s_end.
        acc = 0.0
        prev = s
        ia = 0
        ib = 0
        run = 0
        while ib < k:
            if ia < k and ev_a[ia] <= ev_b[ib]:
                x = ev_a[ia]
                ia += 1
                delta = 1
            else:
                x = ev_b[ib]
                ib += 1
                delta = -1
            if x > prev:
                acc += (x - prev) * mi_table[run]
                prev = x
            run += delta
        if prev < s_end:
            acc += (s_end - prev) * mi_table[0]
        return acc  # the replica lasts 1, so the sum is the average

    @jit
    def sweep(
        rep_start,
        rep_owner,
        user_ptr,
        rep_of_user,
        vf_end,
        w0,
        n_steps,
        step_len,
        win_len,
        mi_table,
        rate,
        nb_lo,
        nb_hi,
        rad,
        f_lo,
        f_hi,
    ):
        # Slide the window over one trace and classify every user. Returns
        # (decoded, decided_w, n_classified, n_visited); decided_w[u] is the
        # window start at the moment user u was decoded or declared lost, and
        # n_visited counts the steps actually executed out of n_steps.
        n_rep = rep_start.shape[0]
        n_user = user_ptr.shape[0] - 1
        n_events = mi_table.shape[0] - 1  # N events of invariant (d)
        rep_start = view(rep_start)
        rep_owner = view(rep_owner)
        user_ptr = view(user_ptr)
        rep_of_user = view(rep_of_user)
        vf_end = view(vf_end)
        mi_table = hold(mi_table)
        nb_lo = view(nb_lo)
        nb_hi = view(nb_hi)
        f_lo = view(f_lo)
        f_hi = view(f_hi)
        n_fatal = view(np.zeros(n_rep, np.int32))
        decided_w_out = np.full(n_user, np.nan)
        decided_w = view(decided_w_out)
        decoded = hold(np.zeros(n_user, np.bool_))
        active = hold(np.ones(n_rep, np.bool_))
        queued = hold(np.zeros(n_rep, np.bool_))
        stack = view(np.empty(n_rep, np.int32))
        top = 0
        n_done = 0
        admit = 0
        trail = 0

        ev_a = hold(np.empty(n_events))
        ev_b = hold(np.empty(n_events))

        step = 0
        n_visited = 0
        while step < n_steps:
            n_visited += 1
            w = w0 + step * step_len
            w_end = w + win_len

            # users whose whole virtual frame slid past the trailing edge
            while trail < n_user and vf_end[trail] < w:
                u = trail
                if not decoded[u]:
                    decided_w[u] = w
                    n_done += 1
                    for jj in range(user_ptr[u], user_ptr[u + 1]):
                        active[rep_of_user[jj]] = False
                trail += 1

            # replicas newly contained in the window become candidates, unless
            # a fatal neighbour is still active; their fatal counts start here
            while admit < n_rep and rep_start[admit] + 1.0 <= w_end:
                if active[admit]:
                    lo = f_lo[admit]
                    hi = f_hi[admit]
                    n = 0
                    if hi - lo > 1:
                        n = sum(active[lo:hi]) - 1  # the replica itself
                        n_fatal[admit] = n
                    if n == 0:
                        queued[admit] = True
                        stack[top] = admit
                        top += 1
                admit += 1

            # cancel until no candidate decodes; cancelling a user re-queues
            # the admitted active replicas its copies overlapped that no other
            # active replica still keeps below the rate
            while top > 0:
                top -= 1
                i = stack[top]
                queued[i] = False
                if not active[i] or rep_start[i] < w:
                    continue
                if avg_mi(rep_start, active, i, nb_lo[i], nb_hi[i], mi_table, ev_a, ev_b) >= rate:
                    u = rep_owner[i]
                    decoded[u] = True
                    decided_w[u] = w
                    n_done += 1
                    for jj in range(user_ptr[u], user_ptr[u + 1]):
                        r = rep_of_user[jj]
                        active[r] = False
                        lo = nb_lo[r]
                        if lo >= admit:
                            continue
                        hi = nb_hi[r]
                        if hi > admit:
                            hi = admit
                        s_r = rep_start[r]
                        for nb in range(lo, hi):
                            if not active[nb] or queued[nb]:
                                continue
                            s_nb = rep_start[nb]
                            if s_nb < w:
                                continue
                            if s_r > s_nb - rad and s_r < s_nb + rad:
                                n_fatal[nb] -= 1
                            if n_fatal[nb] > 0:
                                continue
                            queued[nb] = True
                            stack[top] = nb
                            top += 1

            if n_done >= n_user:
                break

            # The stack is empty, so nothing happens before the next user
            # expires or the next replica is admitted. When neither looks due
            # within two steps, jump to a lower bound of both steps; its
            # margin of one step absorbs the rounding of the estimates, and
            # the tests above stay the exact ones.
            step += 1
            if (trail >= n_user or vf_end[trail] >= w + 2.0 * step_len) and (
                admit >= n_rep or rep_start[admit] + 1.0 > w_end + 2.0 * step_len
            ):
                nxt = n_steps
                if trail < n_user:
                    nxt = int(math.floor((vf_end[trail] - w0) / step_len)) - 1
                if admit < n_rep:
                    k = int(math.floor((rep_start[admit] + 1.0 - win_len - w0) / step_len)) - 1
                    if k < nxt:
                        nxt = k
                if nxt > step:
                    step = nxt

        return np.asarray(decoded, np.bool_), decided_w_out, n_done, n_visited

    return sweep


sic_sweep_python = _build_sweep(_identity, memoryview, _as_list)

sic_sweep_compiled = None
try:
    from numba import njit as _njit
except ImportError:
    _njit = None
if _njit is not None:
    sic_sweep_compiled = _build_sweep(_njit(cache=True), _njit(_identity), _njit(_identity))

NUMBA_ENABLED = sic_sweep_compiled is not None
sic_sweep = sic_sweep_compiled if NUMBA_ENABLED else sic_sweep_python
