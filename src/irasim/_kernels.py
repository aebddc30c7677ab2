"""Hot inner loop of the sliding-window SIC receiver.

The sweep is compiled with numba when available and runs the identical
code as plain Python otherwise (same results). Both variants are always
exported so the benchmark under benchmarks/ can compare them directly:

* ``sic_sweep``          active implementation (compiled when available)
* ``sic_sweep_python``   plain-Python build of the same code
* ``sic_sweep_compiled`` numba build, or None when numba is unavailable

Both builds take numpy arrays. The caller passes, per replica, the index range
``[nb_lo[i], nb_hi[i])`` of the replicas whose start lies within one packet
of replica ``i`` (see ``receiver.sweep_inputs``), so the sweep never searches
for neighbours. The plain build reads and writes every array through a
``memoryview`` of its buffer: element access then yields Python scalars,
about twice as fast as indexing numpy arrays, with no copy and no change in
the arithmetic. The compiled build sees the numpy arrays themselves.

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

Times are in packet durations, so every replica lasts exactly 1.

Fatal pre-test. One equal-power interferer starting less than ``phi``
from a replica keeps the replica's average MI below the rate (``phi`` from
``channel.clean_fraction``), and more interferers only lower it. The caller
passes a radius ``rad`` a little below ``phi`` and, per replica ``i``,
the size ``n_fatal[i]`` of its fatal set ``F(i) = {j != i : s_j >
fl(s_i - rad) and s_j < fl(s_i + rad)}`` (``s`` = ``rep_start``, ``fl`` =
float64 rounding; two ``searchsorted`` calls). The sweep keeps, on a copy,
``n_fatal[i]`` equal to the number of *active* replicas in ``F(i)`` for
every replica that can still be evaluated (active, not yet behind the
window start), and never below it: when the owner of ``r`` is cancelled,
by decoding or by expiry, it decrements ``n_fatal[nb]`` for the ``nb`` in
``r``'s neighbour range with ``s_r > s_nb - rad and s_r < s_nb + rad``, the
same float expressions. A decode skips the neighbours that can no longer be
evaluated, and the queued ones, whose count is already zero. A replica with
a positive count is never pushed, neither at admission nor when a neighbour
decodes; it is pushed once a decode brings its count to zero.
Only evaluations that fail are dropped, and every replica is still
evaluated after the last decode in the step that raises its MI; since
cancelling only raises the MI, each step decodes the same set of users, so
``decoded`` and ``decided_w`` are bit-identical to the sweep without the
test (``rad = 0`` with zero counts, which ``receiver`` also passes when the
test is off).

Why the test is sound in float64. Let ``u = 2**-53``, ``S`` the largest
``|s_i|`` plus 1, ``e = ulp(S)`` (every rounded position errs by at most
``e/2``), ``m_k`` the sweep's ``mi_table`` (``m_0 = I0``, ``m_1 = I1`` bit
for bit as in ``clean_fraction``; correctly rounded, monotone operations
make ``m_k`` non-increasing), ``N`` the largest neighbour range and
``margin = phi * 1e-9``, ``rad = phi - margin``.

* ``j`` in ``F(i)`` means ``|s_j - s_i| < rad + e/2``. As ``rad <= 1 -
  margin``, ``j`` lies in ``i``'s neighbour range and ``i`` in ``j``'s once
  ``margin > e + u``: every count starts and is decremented exactly.
* With ``j`` in ``F(i)`` active, ``avg_mi`` sees ``j`` with a positive
  overlap. On the rounded positions it uses, the clean part of ``i`` is at
  most ``|s_j - s_i| + e`` long, everything else carries at least one
  interferer, so the exact sum over those positions is below ``(1 + e/2)
  * m_1 + (rad + 1.5e) * (m_0 - m_1)``. With ``phi * (m_0 - m_1) <= (rate
  - m_1) * (1 + 4u)`` (the rounded quotient) and the summation error of at
  most ``2N + 1`` segments, ``avg_mi < rate`` whenever ``margin`` exceeds
  ``err = 2(e + u) + (e*m_1 + 8u*((2N + 1)*m_0 + rate)) / (m_0 - m_1)``.

``receiver.with_fatal_counts`` switches the test off (``rad = 0``) unless
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


def _build_sweep(jit, view):
    """Build the sweep with ``jit`` applied to every stage and ``view``
    wrapping every array before element access."""

    @jit
    def avg_mi(rep_start, active, i, lo, hi, snr, mi_table, ev_a, ev_b):
        # Average MI of replica i against every currently active replica in
        # [lo, hi), the replicas starting within one packet of it. Same-owner
        # replicas never land in that range because of the one-packet
        # placement separation. The event buffers hold at least hi - lo entries.
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
        n_mi = mi_table.shape[0]
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
                if run < n_mi:
                    mi_k = mi_table[run]
                else:
                    mi_k = math.log2(1.0 + snr / (1.0 + run * snr))
                acc += (x - prev) * mi_k
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
        snr,
        rate,
        nb_lo,
        nb_hi,
        rad,
        n_fatal,
    ):
        # Slide the window over one trace and classify every user. Returns
        # (decoded, decided_w, n_classified, n_visited); decided_w[u] is the
        # window start at the moment user u was decoded or declared lost, and
        # n_visited counts the steps actually executed out of n_steps.
        n_rep = rep_start.shape[0]
        n_user = user_ptr.shape[0] - 1
        n_ev = 0  # the largest neighbour range bounds the events of avg_mi
        if n_rep > 0:
            n_ev = int(np.max(np.asarray(nb_hi) - np.asarray(nb_lo)))
        rep_start = view(rep_start)
        rep_owner = view(rep_owner)
        user_ptr = view(user_ptr)
        rep_of_user = view(rep_of_user)
        vf_end = view(vf_end)
        nb_lo = view(nb_lo)
        nb_hi = view(nb_hi)
        n_fatal = view(np.copy(n_fatal))  # the inputs stay reusable
        decoded_out = np.zeros(n_user, np.bool_)
        decided_w_out = np.full(n_user, np.nan)
        decoded = view(decoded_out)
        decided_w = view(decided_w_out)
        active = view(np.ones(n_rep, np.bool_))
        queued = view(np.zeros(n_rep, np.bool_))
        stack = view(np.empty(n_rep, np.int64))
        top = 0
        n_done = 0
        admit = 0
        trail = 0

        mi_table = view(np.empty(64))
        for k in range(64):
            mi_table[k] = math.log2(1.0 + snr / (1.0 + k * snr))
        ev_a = view(np.empty(n_ev))
        ev_b = view(np.empty(n_ev))

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
                        r = rep_of_user[jj]
                        active[r] = False
                        if rad > 0.0:
                            s_r = rep_start[r]
                            for nb in range(nb_lo[r], nb_hi[r]):
                                if nb != r and s_r > rep_start[nb] - rad and s_r < rep_start[nb] + rad:
                                    n_fatal[nb] -= 1
                trail += 1

            # replicas newly contained in the window become candidates, unless
            # a fatal neighbour is still active; counts only fall, so no
            # queued replica ever has one
            while admit < n_rep and rep_start[admit] + 1.0 <= w_end:
                i = admit
                if active[i] and n_fatal[i] == 0 and not decoded[rep_owner[i]] and not queued[i]:
                    queued[i] = True
                    stack[top] = i
                    top += 1
                admit += 1

            # cancel until no candidate decodes; cancelling a user re-queues
            # the active replicas its copies overlapped that no other active
            # replica still keeps below the rate
            while top > 0:
                top -= 1
                i = stack[top]
                queued[i] = False
                if not active[i]:
                    continue
                u = rep_owner[i]
                if decoded[u]:
                    continue
                s = rep_start[i]
                if s < w or s + 1.0 > w_end:
                    continue
                mi = avg_mi(rep_start, active, i, nb_lo[i], nb_hi[i], snr, mi_table, ev_a, ev_b)
                if mi >= rate:
                    decoded[u] = True
                    decided_w[u] = w
                    n_done += 1
                    for jj in range(user_ptr[u], user_ptr[u + 1]):
                        r = rep_of_user[jj]
                        active[r] = False
                        s_r = rep_start[r]
                        for nb in range(nb_lo[r], nb_hi[r]):
                            if nb == r or queued[nb] or not active[nb]:
                                continue
                            s_nb = rep_start[nb]
                            if s_nb < w:
                                continue
                            if s_r > s_nb - rad and s_r < s_nb + rad:
                                n_fatal[nb] -= 1
                            if n_fatal[nb] > 0 or nb >= admit or decoded[rep_owner[nb]]:
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

        return decoded_out, decided_w_out, n_done, n_visited

    return sweep


sic_sweep_python = _build_sweep(_identity, memoryview)

sic_sweep_compiled = None
try:
    from numba import njit as _njit
except ImportError:
    _njit = None
if _njit is not None:
    sic_sweep_compiled = _build_sweep(_njit(cache=True), _njit(_identity))

NUMBA_ENABLED = sic_sweep_compiled is not None
sic_sweep = sic_sweep_compiled if NUMBA_ENABLED else sic_sweep_python
