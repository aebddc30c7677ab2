"""Independent reference computations used to pin expected test values.

These deliberately avoid the library's own code paths: the loss-floor double
sum is re-done in arbitrary precision with mpmath and, term by term in the
library's float order, with every pattern count recomputed for each ``m``.
The regular form (:func:`plr_regular`, exact integer ratios for one degree)
and the two-user form (:func:`plr_two_user`, one pattern with a closed form
at degree 2) supply their own per-pattern terms to the library's floor core
``_floor_sum``, so their values and diagnostics compare with ``plr_floor``'s;
replica placement is re-done by literal rejection sampling, configuration
counts by a plain labelled enumeration, and the average mutual information
on a symbol grid.
"""

import math
from itertools import combinations

import mpmath as mp
import numpy as np

from irasim.errorfloor import CollisionPattern, _floor_sum, edge_assignment_count, period_choice_count
from irasim.model import DegreeDistribution, SystemConfig

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


def profile_selection_count(m, profile, dist):
    """Expected number of ways to pick the pattern's users out of ``m``.

    Counts ordered choices of ``nu`` users from ``m`` and weighs them by the
    probability that the chosen users carry exactly the profile's degrees.
    Returns 0 when ``m`` is too small or a required degree has no mass.
    """
    profile = tuple(int(c) for c in profile)
    nu = sum(profile)
    if m < nu:
        return 0.0
    acc = float(math.comb(m, nu) * math.factorial(nu))
    for l, cnt in enumerate(profile, start=1):
        if cnt == 0:
            continue
        p = dist.prob(l)
        if p <= 0.0:
            return 0.0
        acc *= p**cnt / math.factorial(cnt)
    return acc


def prob_user_in_pattern_per_m(m, pattern, n_v, dist):
    """The unclamped per-user pattern probability with every count
    recomputed at ``m``, in the float order of
    ``irasim.errorfloor.pattern_term``."""
    sel = profile_selection_count(m, pattern.profile, dist)
    if sel == 0.0:
        return 0.0
    periods = period_choice_count(n_v, pattern.num_sets)
    total = edge_assignment_count(n_v, pattern.profile)
    return sel * pattern.iso_count * pattern.num_users * (periods / (m * total))


def _per_m_term(s, n_v, dist):
    return lambda m: prob_user_in_pattern_per_m(m, s, n_v, dist)


def plr_floor_per_m(load, cfg, dist, catalog=None, *, diagnostics=None):
    """``plr_floor`` with :func:`prob_user_in_pattern_per_m` as the per-pattern
    term, which sets up no count ahead of ``m``: the same floor core, so
    values and diagnostics compare with ``==``."""
    return _floor_sum(load, cfg, dist, catalog, _per_m_term, diagnostics)


def two_user_pattern(degree: int) -> CollisionPattern:
    """The pattern of two degree-``degree`` users whose replicas all pair up."""
    profile = [0] * degree
    profile[degree - 1] = 2
    return CollisionPattern(f"d{degree}{degree}-m{degree}", tuple(profile), degree, 1)


def plr_regular(
    load: float,
    cfg: SystemConfig,
    degree: int,
    catalog: tuple[CollisionPattern, ...] | None = None,
    *,
    diagnostics: dict | None = None,
) -> float:
    """Specialisation of :func:`plr_floor` to the regular distribution where
    every user transmits exactly ``degree`` replicas.

    The user-selection and placement counts collapse to pure binomials, and
    every per-term probability becomes an exact integer ratio.
    """
    return _floor_sum(load, cfg, DegreeDistribution.regular(degree), catalog, _regular_term, diagnostics)


def _regular_term(s: CollisionPattern, n_v: int, dist: DegreeDistribution):
    """:func:`plr_regular`'s term of ``s``; every user has degree ``dist.d_m``."""
    nu, placements = s.num_users, n_v * math.comb(n_v - 1, dist.d_m - 1)
    num = math.comb(n_v - 1, s.num_sets - 1) * s.iso_count * n_v
    return lambda m: nu * math.comb(m, nu) * num / (m * placements**nu)


def plr_two_user(
    load: float,
    cfg: SystemConfig,
    degree: int,
    *,
    diagnostics: dict | None = None,
) -> float:
    """Loss floor when only the two-user pattern is considered for a regular
    degree: two users whose ``degree`` replicas collide pairwise.

    For ``degree = 2`` this sum has the closed form
    ``(n_p G - 1 + exp(-n_p G)) / (n_v (n_v - 1))``.
    """
    pair = (two_user_pattern(degree),)
    return _floor_sum(load, cfg, DegreeDistribution.regular(degree), pair, _two_user_term, diagnostics)


def _two_user_term(s: CollisionPattern, n_v: int, dist: DegreeDistribution):
    """:func:`plr_two_user`'s term of its one pattern ``s``, the pair of
    degree-``dist.d_m`` users."""
    den_base = n_v * math.comb(n_v - 1, dist.d_m - 1)
    return lambda m: (2 * math.comb(m, 2)) / (m * den_base)


def two_user_closed_form(load, vf_span, n_v):
    """Closed form of the degree-2 two-user floor term."""
    lam = vf_span * load
    return (lam - 1.0 + np.exp(-lam)) / (n_v * (n_v - 1.0))


def place_replicas_rejection(t0, degree, vf_span, rng, max_tries=100000):
    """Literal rejection sampler for replica placement (placement oracle)."""
    for _ in range(max_tries):
        rel = rng.uniform(0.0, vf_span - 1.0, degree - 1)
        starts = np.sort(np.concatenate(([0.0], rel)))
        if np.all(np.diff(starts) >= 1.0):
            return t0 + starts
    raise RuntimeError("rejection sampler did not terminate")


def quantized_avg_mi(tl, snr, n_symbols):
    """Average MI of an interference timeline after quantising the replica
    into ``n_symbols`` equal symbols, each taking the interferer count at its
    midpoint. Converges to the exact segment average as ``n_symbols`` grows,
    which bounds the effect of ignoring the symbol grid."""
    begin = tl.begin
    width = (tl.end - begin) / n_symbols
    acc = 0.0
    segments = tl.segments
    idx = 0
    last = len(segments) - 1
    for i in range(n_symbols):
        t = begin + (i + 0.5) * width
        while idx < last and t >= segments[idx][0].end:
            idx += 1
        acc += math.log2(1.0 + snr / (1.0 + segments[idx][1] * snr))
    return acc / n_symbols


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
