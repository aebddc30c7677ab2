"""Hot inner loop of the sliding-window SIC receiver.

The sweep is compiled with numba when available; set IRASIM_NO_NUMBA=1 to
select the identical code as plain Python (slow path, same results). Both
variants are always exported so the benchmark under benchmarks/ can compare
them directly:

* ``sic_sweep``          active implementation (compiled unless disabled)
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
"""

from __future__ import annotations

import math
import os

import numpy as np

ENV_FLAG = "IRASIM_NO_NUMBA"


def _numba_requested() -> bool:
    return os.environ.get(ENV_FLAG, "").strip().lower() not in {"1", "true", "yes", "on"}


def _identity(a):
    return a


def _build_sweep(jit, view):
    """Build the sweep with ``jit`` applied to every stage and ``view``
    wrapping every array before element access."""

    @jit
    def avg_mi(rep_start, active, i, lo, hi, snr, t_p, mi_table, ev_a, ev_b):
        # Average MI of replica i against every currently active replica in
        # [lo, hi), the replicas starting within one packet of it. Same-owner
        # replicas never land in that range because of the one-packet
        # placement separation.
        s = rep_start[i]
        s_end = s + t_p
        k = 0
        cap = ev_a.shape[0]
        for j in range(lo, hi):
            if j == i or not active[j]:
                continue
            a = rep_start[j]
            b = a + t_p
            if a < s:
                a = s
            if b > s_end:
                b = s_end
            if b <= a:
                continue
            if k >= cap:
                return -1.0  # caller retries with bigger event buffers
            ev_a[k] = a
            ev_b[k] = b
            k += 1
        if k == 0:
            return mi_table[0]
        # Both event lists are already ascending, since rep_start is sorted:
        # replicas j < i contribute a = s and b = rep_start[j] + t_p <= s_end,
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
        return acc / t_p

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
        t_p,
        nb_lo,
        nb_hi,
    ):
        # Slide the window over one trace and classify every user. Returns
        # (decoded, decided_w, n_classified, n_visited); decided_w[u] is the
        # window start at the moment user u was decoded or declared lost, and
        # n_visited counts the steps actually executed out of n_steps.
        n_rep = rep_start.shape[0]
        n_user = user_ptr.shape[0] - 1
        rep_start = view(rep_start)
        rep_owner = view(rep_owner)
        user_ptr = view(user_ptr)
        rep_of_user = view(rep_of_user)
        vf_end = view(vf_end)
        nb_lo = view(nb_lo)
        nb_hi = view(nb_hi)
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
        ev_a = view(np.empty(256))
        ev_b = view(np.empty(256))

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

            # replicas newly contained in the window become candidates
            while admit < n_rep and rep_start[admit] + t_p <= w_end:
                i = admit
                if active[i] and not decoded[rep_owner[i]] and not queued[i]:
                    queued[i] = True
                    stack[top] = i
                    top += 1
                admit += 1

            # cancel until no candidate decodes; cancelling a user re-queues
            # the active replicas its copies overlapped
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
                if s < w or s + t_p > w_end:
                    continue
                lo = nb_lo[i]
                hi = nb_hi[i]
                mi = avg_mi(rep_start, active, i, lo, hi, snr, t_p, mi_table, ev_a, ev_b)
                while mi < 0.0:
                    ev_a = view(np.empty(ev_a.shape[0] * 2))
                    ev_b = view(np.empty(ev_b.shape[0] * 2))
                    mi = avg_mi(rep_start, active, i, lo, hi, snr, t_p, mi_table, ev_a, ev_b)
                if mi >= rate:
                    decoded[u] = True
                    decided_w[u] = w
                    n_done += 1
                    for jj in range(user_ptr[u], user_ptr[u + 1]):
                        r = rep_of_user[jj]
                        active[r] = False
                        for nb in range(nb_lo[r], nb_hi[r]):
                            if nb == r or nb >= admit or queued[nb] or not active[nb]:
                                continue
                            if decoded[rep_owner[nb]] or rep_start[nb] < w:
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
                admit >= n_rep or rep_start[admit] + t_p > w_end + 2.0 * step_len
            ):
                nxt = n_steps
                if trail < n_user:
                    nxt = int(math.floor((vf_end[trail] - w0) / step_len)) - 1
                if admit < n_rep:
                    k = int(math.floor((rep_start[admit] + t_p - win_len - w0) / step_len)) - 1
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

NUMBA_ENABLED = sic_sweep_compiled is not None and _numba_requested()
sic_sweep = sic_sweep_compiled if NUMBA_ENABLED else sic_sweep_python
