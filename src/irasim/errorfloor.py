"""Analytical approximation of the packet loss rate in the error-floor region.

At low to medium load, losses are dominated by small groups of users whose
replicas block each other so thoroughly that interference cancellation never
gets started: unresolvable collision patterns. The machinery here

* reduces the two-packet collision geometry to a vulnerable fraction ``phi``
  and a number ``n_v`` of disjoint vulnerable periods per virtual frame,
* carries a catalog of the dominant patterns with up to four replica-collision
  sets, each described by its per-degree user profile, its number of
  replica-collision sets and the count of labeled configurations realising it
  over a fixed set of periods,
* combines selection, placement and configuration counts into the probability
  that a tagged user is caught in a pattern (:func:`pattern_term` sets up,
  once per pattern, every count that does not depend on the number of users),
  caps each pattern's probability at 1 and mixes the sum over the Poisson
  number of users sharing a virtual-frame span (:func:`plr_floor`, the one
  floor of the library; its core :func:`_floor_sum` keeps each capped sum
  for the other loads of a grid),
* validates every configuration count against a brute-force enumeration over
  a small number of labeled periods.

Combinatorial quantities are evaluated with exact integer arithmetic
(arbitrary precision) and divided as late as possible; only the Poisson
weights go through log space.
"""

from __future__ import annotations

import functools
import math
import warnings
from itertools import combinations

from .channel import clean_fraction, symbol_mi
from .model import DegreeDistribution, ModelError, SystemConfig, _Record, validate_config

TAIL_EPS = 1e-15
TERM_REL_EPS = 1e-13

#: Cap on the terms of the Poisson mixture, checked before the first term,
#: since the sum needs about ``lam`` of them. The shipped configs reach
#: ``lam = 150``; near the cap (``lam`` about 8800, 9554 terms) one ``irr1``
#: floor takes about 0.08 s on a 2-vCPU Xeon.
MAX_POISSON_TERMS = 10_000


class FloorError(ValueError):
    """Analytical machinery left its domain of validity."""


class InfeasiblePattern(FloorError):
    pass


class DegenerateVulnerablePeriod(FloorError):
    pass


class NonconvergentTruncation(FloorError):
    pass


class EnumerationTooLarge(FloorError):
    pass


class CollisionChannelRegimeWarning(UserWarning):
    """The rate meets or exceeds the clean-packet capacity: any overlap kills
    a replica and the vulnerable period saturates at two packet durations."""


class CollisionPattern(_Record):
    """One unresolvable collision pattern.

    ``profile[i]`` counts the users of degree ``i + 1`` taking part;
    ``num_sets`` is the number of replica-collision sets (maximal groups of
    mutually interfering replicas) and ``iso_count`` the number of distinct
    labeled configurations realising the pattern over a fixed, labeled set of
    ``num_sets`` vulnerable periods.
    """

    name: str
    profile: tuple[int, ...]
    num_sets: int
    iso_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", tuple(int(c) for c in self.profile))
        if any(c < 0 for c in self.profile):
            raise InfeasiblePattern(f"negative user count in profile {self.profile}")
        if self.profile and self.profile[0] != 0:
            raise InfeasiblePattern("degree-1 users cannot occur, the protocol floor is two replicas")
        if self.num_users < 1:
            raise InfeasiblePattern("pattern must involve at least one user")
        if self.num_sets < 1:
            raise InfeasiblePattern("pattern must occupy at least one vulnerable period")
        if self.total_replicas < 2 * self.num_sets:
            raise InfeasiblePattern(
                "every replica-collision set holds at least two replicas, "
                f"but profile {self.profile} has {self.total_replicas} replicas "
                f"for {self.num_sets} sets"
            )
        if self.iso_count < 1:
            raise InfeasiblePattern("configuration count must be at least 1")
        # a user's replicas occupy distinct periods
        top = max(l for l, cnt in enumerate(self.profile, start=1) if cnt)
        if top > self.num_sets:
            raise InfeasiblePattern(
                f"pattern {self.name}: a degree-{top} user needs {top} distinct periods, "
                f"but the pattern occupies {self.num_sets}"
            )

    @property
    def num_users(self) -> int:
        return sum(self.profile)

    @property
    def total_replicas(self) -> int:
        return sum(l * c for l, c in enumerate(self.profile, start=1))

    def degree_list(self) -> list[int]:
        return [l for l, c in enumerate(self.profile, start=1) for _ in range(c)]


class FloorParams(_Record):
    """Derived floor geometry for one scenario."""

    phi: float
    n_v: int
    n_p: float


_BUILTIN_ROWS = (
    # name, profile (degree 1..4), replica-collision sets, labeled configurations
    ("d22-m2", (0, 2, 0, 0), 2, 1),
    ("d33-m3", (0, 0, 2, 0), 3, 1),
    ("d222-m3", (0, 3, 0, 0), 3, 6),
    ("d223-m3", (0, 2, 1, 0), 3, 6),
    ("d44-m4", (0, 0, 0, 2), 4, 1),
    ("d224-m4", (0, 2, 0, 1), 4, 6),
    ("d233-m4", (0, 1, 2, 0), 4, 12),
    ("d234-m4", (0, 1, 1, 1), 4, 12),
    ("d333-m4", (0, 0, 3, 0), 4, 24),
    ("d334-m4", (0, 0, 2, 1), 4, 12),
    ("d2224-m4", (0, 3, 0, 1), 4, 24),
    ("d2222-m4", (0, 4, 0, 0), 4, 72),
)


@functools.cache
def builtin_catalog() -> tuple[CollisionPattern, ...]:
    """The twelve dominant patterns with at most four replica-collision sets
    (one tuple, built on the first call)."""
    return tuple(CollisionPattern(n, p, mu, c) for n, p, mu, c in _BUILTIN_ROWS)


def vulnerable_fraction(snr_linear: float, rate: float) -> float:
    """Fraction ``phi`` of a packet that must stay clean for decoding.

    ``phi`` solves ``phi * I0 + (1 - phi) * I1 = rate`` where ``I0`` is the
    interference-free MI and ``I1`` the MI under one equal-power interferer,
    clamped to ``[0, 1]``. A single interferer is fatal exactly when it starts
    within ``phi`` packet durations of either packet edge, so the vulnerable
    period spans ``2 * phi`` packet durations. ``phi = 0`` means one
    interferer can never kill a packet; ``phi = 1`` (flagged by a
    :class:`CollisionChannelRegimeWarning`) means even a clean packet carries
    no rate margin and the model degenerates to the collision channel.
    """
    if not snr_linear > 0:
        raise ModelError(f"snr must be positive, got {snr_linear}")
    if not rate > 0:
        raise ModelError(f"rate must be positive, got {rate}")
    i0 = symbol_mi(snr_linear, 0)
    if rate >= i0:
        warnings.warn(
            f"rate {rate} >= clean-packet capacity {i0:.6g}; collision channel regime",
            CollisionChannelRegimeWarning,
            stacklevel=2,
        )
    return clean_fraction(snr_linear, rate)


def vp_count(vf_span: float, phi: float) -> int:
    """Number of disjoint vulnerable periods inside one virtual frame."""
    if phi <= 0.0:
        raise DegenerateVulnerablePeriod(
            "phi = 0: a single interferer is never fatal and no floor exists"
        )
    return int(math.floor(vf_span / (2.0 * phi)))


def floor_params(cfg: SystemConfig) -> FloorParams:
    phi = vulnerable_fraction(cfg.snr_linear, cfg.rate)
    n_v = vp_count(cfg.vf_span, phi) if phi > 0.0 else 0
    return FloorParams(phi=phi, n_v=n_v, n_p=cfg.vf_span)


def period_choice_count(n_v: int, num_sets: int) -> int:
    """Ways to choose the pattern's vulnerable periods around the tagged user."""
    if num_sets < 1 or num_sets > n_v:
        raise InfeasiblePattern(
            f"{num_sets} replica-collision sets cannot occupy {n_v} vulnerable periods"
        )
    return math.comb(n_v - 1, num_sets - 1)


def edge_assignment_count(n_v: int, profile) -> int | float:
    """Total ways the profile's users can attach replicas to ``n_v`` periods."""
    profile = tuple(int(c) for c in profile)
    prod = 1
    for l, cnt in enumerate(profile, start=1):
        if cnt:
            prod *= (n_v * math.comb(n_v - 1, l - 1)) ** cnt
    if sum(profile) == 0:
        return 1.0 / n_v
    # every factor carries one power of n_v, so this division is exact
    return prod // n_v


def pattern_term(pattern: CollisionPattern, n_v: int, dist: DegreeDistribution):
    """The union-bound probability that a tagged user, one of ``m``, is
    caught in ``pattern``, as a function ``at(m)``; it can exceed 1 where
    ``n_v`` is small, and the floor core caps it there.

    Every count that does not depend on ``m`` is set up here, once: the
    weight ``p**cnt / cnt!`` of each degree of the profile in profile order
    (0 for a degree without mass), the configuration count as a float, and
    the period-choice and placement counts. A row whose weights or
    configuration count leave the float range fails here with an
    ``OverflowError``. ``at(m)`` multiplies the expected ways to pick the
    users out of ``m`` (0 when ``m`` is too small) by the ways to place
    them, over all placements.
    """
    nu = pattern.num_users
    weights = [dist.prob(l) ** cnt / math.factorial(cnt) for l, cnt in enumerate(pattern.profile, start=1) if cnt]
    # the product below converted the integer the same way, at every m
    iso_count = float(pattern.iso_count)
    periods = period_choice_count(n_v, pattern.num_sets)
    total = edge_assignment_count(n_v, pattern.profile)

    def at(m: int) -> float:
        sel = float(math.perm(m, nu))  # comb(m, nu) * nu!, the same integer
        for w in weights:
            sel *= w
        # exact big-integer ratio, converted to float only at the end
        return sel * iso_count * nu * (periods / (m * total))

    return at


def _poisson_log_pmf(m: int, lam: float) -> float:
    return m * math.log(lam) - lam - math.lgamma(m + 1)


def _mix_over_poisson(lam: float, per_m, diagnostics: dict | None) -> float:
    """Sum ``per_m(m) * Poisson(m; lam)`` for m >= 2 with adaptive truncation.

    Terms are accumulated until the Poisson tail mass beyond m (bounded by a
    geometric series once m exceeds the mean) drops below ``TAIL_EPS`` and
    the last increment contributes less than ``TERM_REL_EPS`` of the running
    sum. A hard cap guards against runaway sums; a cap above
    ``MAX_POISSON_TERMS`` (or a ``lam`` that is not finite) is refused
    before the first term.
    """
    cap = lam + 12.0 * math.sqrt(lam) + 50.0
    if not cap <= MAX_POISSON_TERMS:
        raise NonconvergentTruncation(
            f"load mixture with lambda={lam:g} needs about {cap:.3g} terms, "
            f"more than {MAX_POISSON_TERMS}"
        )
    total = 0.0
    m_cap = int(cap)
    for m in range(2, m_cap + 1):
        pm = math.exp(_poisson_log_pmf(m, lam))
        inc = pm * per_m(m)
        total += inc
        ratio = lam / (m + 2.0)
        if ratio < 1.0:
            tail_bound = pm * (lam / (m + 1.0)) / (1.0 - ratio)
            if tail_bound < TAIL_EPS and inc <= TERM_REL_EPS * total:
                break
    else:
        raise NonconvergentTruncation(
            f"load mixture did not converge within {m_cap} terms (lambda={lam})"
        )
    if diagnostics is not None:
        diagnostics["m_terms"] = m - 1
    return total


#: Tables of per-``m`` sums the floor core keeps, the least recently used
#: dropped first. A table holds one pair per ``m`` the mixture reached, at
#: most ``MAX_POISSON_TERMS`` of them.
_TERM_TABLES = 4


@functools.lru_cache(maxsize=_TERM_TABLES)
def _term_sums(term, feasible: tuple[CollisionPattern, ...], n_v: int, dist: DegreeDistribution):
    """``sums(m)``: the per-pattern terms ``term(s, n_v, dist)(m)`` of the
    ``feasible`` patterns, each capped at 1, summed in catalog order, and
    the number of capped terms. Every term is non-negative, so no lower cap
    is needed. Each ``m`` is computed once and kept, so that the loads of a
    grid share it; the key holds every input a sum depends on, so a kept
    pair is the one a fresh computation gives.
    """
    at = [term(s, n_v, dist) for s in feasible]
    kept: dict[int, tuple[float, int]] = {}

    def sums(m: int) -> tuple[float, int]:
        if m not in kept:
            row = [f(m) for f in at]
            capped = sum(v > 1.0 for v in row)
            kept[m] = (sum(min(v, 1.0) for v in row) if capped else sum(row), capped)
        return kept[m]

    return sums


def _floor_sum(
    load: float,
    cfg: SystemConfig,
    dist: DegreeDistribution,
    catalog: tuple[CollisionPattern, ...] | None,
    term,
    diagnostics: dict | None,
) -> float:
    """The core of :func:`plr_floor`, which passes :func:`pattern_term`;
    the tests' regular, two-user and per-``m`` oracles pass terms of their
    own to the same core. ``term(s, n_v, dist)`` sets up the term of one
    pattern ``s`` of ``catalog`` (default: builtin) and returns ``at(m)``:
    the probability that a tagged user, one of ``m``, is caught in ``s``,
    uncapped. The core caps each term at 1, counting the caps in
    ``clamped_terms``, sums the terms of the feasible patterns
    (:func:`_term_sums`) and mixes the sum over the Poisson number ``m`` of
    users per virtual-frame span. ``term`` must be a module-level function:
    it is part of the key of the kept sums.

    The pair ``(cfg, dist)`` is checked first (:func:`validate_config`). A
    pattern is feasible when every degree of its profile has mass and its
    replica-collision sets fit the ``n_v`` vulnerable periods. With
    ``phi = 0``, ``n_v`` is 0 and no pattern fits. The floor is 0 when no
    pattern is feasible.
    """
    validate_config(cfg, dist)
    if catalog is None:
        catalog = builtin_catalog()
    if not catalog:
        raise FloorError("pattern catalog is empty")
    params = floor_params(cfg)
    feasible = tuple(
        s for s in catalog
        if s.num_sets <= params.n_v and all(dist.prob(l) > 0.0 for l, cnt in enumerate(s.profile, start=1) if cnt)
    )
    if diagnostics is not None:
        diagnostics["phi"] = params.phi
        diagnostics["n_v"] = params.n_v
        diagnostics["patterns"] = [s.name for s in feasible]
    if not feasible:
        return 0.0

    def per_m(m: int) -> float:
        total, capped = sums(m)
        if capped and diagnostics is not None:
            diagnostics["clamped_terms"] = diagnostics.get("clamped_terms", 0) + capped
        return total

    try:
        sums = _term_sums(term, feasible, params.n_v, dist)
        return _mix_over_poisson(cfg.vf_span * load, per_m, diagnostics)
    except OverflowError as exc:  # 171 users, a huge iso_count, or 170 users once m reaches 171
        raise FloorError(f"a pattern term leaves the float64 range: {exc}") from exc


def plr_floor(
    load: float,
    cfg: SystemConfig,
    dist: DegreeDistribution,
    catalog: tuple[CollisionPattern, ...] | None = None,
    *,
    diagnostics: dict | None = None,
) -> float:
    """Error-floor approximation of the packet loss rate at ``load``.

    Sums, over the feasible catalog patterns and the Poisson-distributed
    number of users per virtual-frame span, the probability that a tagged
    user belongs to an unresolvable pattern (:func:`pattern_term`). Returns 0
    when one interferer can never kill a packet (``phi = 0``).

    The capped sum of each ``m`` is kept across calls (:func:`_term_sums`),
    so the loads of a grid share it; ``clamped_terms`` and ``m_terms`` are
    still counted per call.
    """
    return _floor_sum(load, cfg, dist, catalog, pattern_term, diagnostics)


# -- brute-force validation of the configuration counts ----------------------

_MAX_ENUM_PERIODS = 10


def count_configurations(pattern: CollisionPattern, n_periods: int) -> int:
    """Exhaustively count labeled assignments realising ``pattern``.

    Every user of degree ``l`` picks an ``l``-subset of ``n_periods`` labeled
    vulnerable periods. An assignment realises the pattern when exactly
    ``num_sets`` periods are occupied, every occupied period holds at least
    two replicas, the occupancy graph is connected, and no proper nonempty
    user subset is already stuck on its own (no user of the subset keeps a
    replica alone in a period). The result equals
    ``comb(n_periods, num_sets) * iso_count`` when ``iso_count`` is correct;
    the enumeration still runs over all ``n_periods`` periods, so that
    identity is checked rather than assumed.

    Users are placed in descending degree order. Four exact reductions keep
    the enumeration small:

    * Period relabelling. A permutation of the periods maps an assignment
      that realises the pattern to another one: it keeps the number of
      occupied periods, the replicas in each, connectivity and which user
      subsets are stuck. It also maps the first user's ``d1``-subsets onto
      each other, so every one of the ``comb(n_periods, d1)`` choices for the
      first user completes in the same number of ways. The first user is
      fixed to periods ``0..d1-1`` and the count multiplied by that binomial.
    * User relabelling. Swapping two users of equal degree also maps an
      assignment that realises the pattern to another one, since every
      condition is symmetric in the users. Two users with one and the same
      mask never realise a pattern with a third user: the two would form a
      stuck proper subset. So each run of ``g`` equal-degree users after the
      first user (the first is fixed by the period relabelling, so the users
      of its degree after it form their own run) is placed in strictly
      increasing mask order, and the count is multiplied by ``g!``. With
      only two users, the second is a run of one, free to repeat the
      first user's mask.
    * Pruning. A branch stops when more than ``num_sets`` periods are
      occupied, or when more periods hold a single replica than replicas are
      left to place (each such period needs one more). Both tests hold for
      every completion of the branch, in any order of the users.
    * Leaf checks on holders. Each occupied period becomes the bitmask of the
      users holding a replica there, so the stuck test is a few bit
      operations on ``num_sets`` masks per user subset. Connectivity needs no
      test of its own: once every occupied period holds at least two
      replicas, a connected component that leaves some user out is a stuck
      proper subset, since each period it touches holds only its members.
    """
    if n_periods > _MAX_ENUM_PERIODS:
        raise EnumerationTooLarge(
            f"exhaustive enumeration over {n_periods} periods is not tractable"
        )
    degrees = sorted(pattern.degree_list(), reverse=True)
    mu = pattern.num_sets
    if mu > n_periods or degrees[0] > n_periods:
        return 0
    nu = len(degrees)
    everyone = (1 << nu) - 1
    bits = [1 << b for b in range(n_periods)]
    masks_by_degree = {d: [sum(combo) for combo in combinations(bits, d)] for d in set(degrees)}
    # replicas still to place once the first ``pos`` users are placed
    left = [sum(degrees[pos:]) for pos in range(nu + 1)]
    # whether the user at ``pos`` continues the run of the user before it
    in_run = [1 < pos < nu and degrees[pos] == degrees[pos - 1] for pos in range(nu + 1)]
    orbit = math.prod(math.factorial(degrees.count(d) - (d == degrees[0])) for d in set(degrees))
    chosen = [0] * nu

    def realised(union: int) -> bool:
        holders = []
        for b in range(n_periods):
            if union >> b & 1:
                holders.append(sum(1 << i for i in range(nu) if chosen[i] >> b & 1))
        # reject if some proper nonempty user subset is itself stuck, i.e.
        # no period holds exactly one of its members
        for sub in range(1, everyone):
            for h in holders:
                x = h & sub
                if x and not x & (x - 1):
                    break
            else:
                return False
        return True

    def rec(pos: int, union: int, ones: int, lo: int) -> int:
        if pos == nu:
            return 1 if not ones and union.bit_count() == mu and realised(union) else 0
        found = 0
        masks = masks_by_degree[degrees[pos]]
        for i in range(lo, len(masks)):
            mask = masks[i]
            u2 = union | mask
            if u2.bit_count() > mu:
                continue
            o2 = (ones & ~mask) | (mask & ~union)
            if o2.bit_count() <= left[pos + 1]:
                chosen[pos] = mask
                found += rec(pos + 1, u2, o2, i + 1 if in_run[pos + 1] else 0)
        return found

    first = (1 << degrees[0]) - 1
    chosen[0] = first
    return math.comb(n_periods, degrees[0]) * orbit * rec(1, first, first, 0)


# -- catalog files ------------------------------------------------------------


def load_catalog(path) -> tuple[CollisionPattern, ...]:
    """Read a pattern catalog from a text file.

    Each non-comment line holds ``name profile num_sets iso_count`` with the
    profile as comma-separated per-degree user counts starting at degree 1,
    e.g. ``d222-m3 0,3,0,0 3 6``. A row with more users than
    ``MAX_POISSON_TERMS`` is refused: its term is 0 for every ``m`` the
    Poisson mixture reaches.
    """
    patterns = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise FloorError(f"{path}:{lineno}: expected 'name profile num_sets iso_count'")
            name, profile_s, mu_s, c_s = parts
            try:
                profile = tuple(int(x) for x in profile_s.split(","))
                pattern = CollisionPattern(name, profile, int(mu_s), int(c_s))
                if pattern.num_users > MAX_POISSON_TERMS:
                    raise FloorError(f"{pattern.num_users} users, more than the {MAX_POISSON_TERMS} "
                                     "terms of the Poisson mixture")
            except ValueError as exc:
                raise FloorError(f"{path}:{lineno}: {exc}") from exc
            patterns.append(pattern)
    if not patterns:
        raise FloorError(f"{path}: catalog file holds no patterns")
    return tuple(patterns)


def write_catalog(path, catalog) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# name profile num_sets iso_count\n")
        for s in catalog:
            fh.write(f"{s.name} {','.join(str(c) for c in s.profile)} {s.num_sets} {s.iso_count}\n")
