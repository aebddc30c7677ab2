"""Independent reference computations used to pin expected test values.

These deliberately avoid the library's own code paths: the loss-floor double
sum is re-done in arbitrary precision with mpmath, replica placement is
re-done by literal rejection sampling, and configuration counts by a plain
labelled enumeration.
"""

from itertools import combinations

import mpmath as mp
import numpy as np

TABLE_ROWS = [
    ((0, 2, 0, 0), 2, 1),
    ((0, 0, 2, 0), 3, 1),
    ((0, 3, 0, 0), 3, 6),
    ((0, 2, 1, 0), 3, 6),
    ((0, 0, 0, 2), 4, 1),
    ((0, 2, 0, 1), 4, 6),
    ((0, 1, 2, 0), 4, 12),
    ((0, 1, 1, 1), 4, 12),
    ((0, 0, 3, 0), 4, 24),
    ((0, 0, 2, 1), 4, 12),
    ((0, 3, 0, 1), 4, 24),
    ((0, 4, 0, 0), 4, 72),
]


def plr_floor_mp(load, vf_span, snr_db, rate, dist_pairs, m_max=400, dps=60):
    """Arbitrary-precision loss floor over the feasible catalog rows."""
    with mp.workdps(dps):
        rho = mp.mpf(10) ** (mp.mpf(snr_db) / 10)
        i0 = mp.log(1 + rho) / mp.log(2)
        i1 = mp.log(1 + rho / (1 + rho)) / mp.log(2)
        phi = (mp.mpf(rate) - i1) / (i0 - i1)
        n_v = int(mp.floor(mp.mpf(vf_span) / (2 * phi)))
        lam = mp.mpf(vf_span) * mp.mpf(load)
        prob = dict(dist_pairs)
        rows = [
            r
            for r in TABLE_ROWS
            if all(c == 0 or prob.get(l, 0) > 0 for l, c in enumerate(r[0], start=1))
        ]
        total = mp.mpf(0)
        for m in range(2, m_max + 1):
            pois = mp.e ** (-lam) * lam**m / mp.factorial(m)
            for profile, mu, c in rows:
                nu = sum(profile)
                if m < nu:
                    continue
                a = mp.binomial(m, nu) * mp.factorial(nu)
                for l, cnt in enumerate(profile, start=1):
                    if cnt:
                        a *= mp.mpf(prob[l]) ** cnt / mp.factorial(cnt)
                b = mp.binomial(n_v - 1, mu - 1)
                d = mp.mpf(1) / n_v
                for l, cnt in enumerate(profile, start=1):
                    if cnt:
                        d *= (n_v * mp.binomial(n_v - 1, l - 1)) ** cnt
                total += pois * a * b * c / d * mp.mpf(nu) / m
        return float(total)


def two_user_closed_form(load, vf_span, n_v):
    """Closed form of the degree-2 two-user floor term."""
    lam = vf_span * load
    return (lam - 1.0 + np.exp(-lam)) / (n_v * (n_v - 1.0))


def place_replicas_rejection(t0, degree, vf_span, rng, t_p=1.0, max_tries=100000):
    """Literal rejection sampler for replica placement (placement oracle)."""
    hi = vf_span * t_p - t_p
    for _ in range(max_tries):
        rel = rng.uniform(0.0, hi, degree - 1)
        starts = np.sort(np.concatenate(([0.0], rel)))
        if np.all(np.diff(starts) >= t_p):
            return t0 + starts
    raise RuntimeError("rejection sampler did not terminate")


def count_configurations_labelled(pattern, n_periods):
    """Labelled brute-force count of the assignments realising ``pattern``.

    The plain enumeration, without the library's symmetry reduction and
    pruning: every user tries every mask, and the leaf checks sum over all
    users for every period and every user subset.

    Every user of degree ``l`` picks an ``l``-subset of ``n_periods`` labeled
    vulnerable periods. An assignment realises the pattern when exactly
    ``num_sets`` periods are occupied, every occupied period holds at least
    two replicas, the occupancy graph is connected, and no proper nonempty
    user subset is already stuck on its own (no user of the subset keeps a
    replica alone in a period). The result equals
    ``comb(n_periods, num_sets) * iso_count`` when ``iso_count`` is correct.
    """
    degrees = pattern.degree_list()
    mu = pattern.num_sets
    if mu > n_periods or max(degrees) > n_periods:
        return 0
    nu = len(degrees)

    masks_by_degree: dict[int, list[int]] = {}
    for d in set(degrees):
        masks_by_degree[d] = [
            sum(1 << b for b in combo) for combo in combinations(range(n_periods), d)
        ]

    # enumerate users in descending degree order; pruning on the occupied-set
    # size cuts most branches early, the count itself is order-independent
    order = sorted(range(nu), key=lambda i: -degrees[i])
    chosen = [0] * nu
    count = 0

    def occupancy_ok(union: int) -> bool:
        for b in range(n_periods):
            if union >> b & 1:
                if sum(chosen[i] >> b & 1 for i in range(nu)) < 2:
                    return False
        return True

    def connected(union: int) -> bool:
        comp = chosen[0]
        grew = True
        while grew:
            grew = False
            for i in range(1, nu):
                if chosen[i] & comp and chosen[i] | comp != comp:
                    comp |= chosen[i]
                    grew = True
        return all(chosen[i] & comp for i in range(nu))

    def dominant() -> bool:
        # reject if some proper nonempty user subset is itself stuck
        for sub in range(1, (1 << nu) - 1):
            members = [i for i in range(nu) if sub >> i & 1]
            union = 0
            for i in members:
                union |= chosen[i]
            stuck = True
            for b in range(n_periods):
                if union >> b & 1:
                    if sum(chosen[i] >> b & 1 for i in members) == 1:
                        stuck = False
                        break
            if stuck:
                return False
        return True

    def rec(pos: int, union: int) -> None:
        nonlocal count
        if pos == nu:
            if (
                union.bit_count() == mu
                and occupancy_ok(union)
                and connected(union)
                and dominant()
            ):
                count += 1
            return
        user = order[pos]
        for mask in masks_by_degree[degrees[user]]:
            u2 = union | mask
            if u2.bit_count() <= mu:
                chosen[user] = mask
                rec(pos + 1, u2)
        chosen[user] = 0

    rec(0, 0)
    return count
