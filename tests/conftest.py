import math

import numpy as np
import pytest

from irasim.model import DegreeDistribution, SystemConfig
from irasim.traffic import TrafficTrace


#: Degree mixes the differential receiver tests cycle through: the two
#: regular ones and the two irregular ones. The `dist_*` fixtures below return
#: these entries, and tests/test_kernel_digests.py names them x2, x3, lambda1
#: and lambda2.
MIXES = (
    DegreeDistribution.regular(2),
    DegreeDistribution.regular(3),
    DegreeDistribution.from_pairs([(2, 0.263), (3, 0.344), (5, 0.393)]),
    DegreeDistribution.from_pairs([(2, 0.51), (4, 0.49)]),
)


@pytest.fixture(scope="session")
def cfg_tf200_r15():
    return SystemConfig.from_db(6.0, 1.5, 200.0)


@pytest.fixture(scope="session")
def cfg_tf200_r20():
    return SystemConfig.from_db(6.0, 2.0, 200.0)


@pytest.fixture(scope="session")
def cfg_tf100_r15():
    return SystemConfig.from_db(6.0, 1.5, 100.0)


@pytest.fixture(scope="session")
def dist_x2():
    return MIXES[0]


@pytest.fixture(scope="session")
def dist_x3():
    return MIXES[1]


@pytest.fixture(scope="session")
def dist_lambda1():
    return MIXES[2]


@pytest.fixture(scope="session")
def dist_lambda2():
    return MIXES[3]


def manual_trace(cfg: SystemConfig, users) -> TrafficTrace:
    """Trace built from explicit per-user replica start tuples."""
    arrival = np.array([u[0] for u in users], dtype=np.float64)
    degree = np.array([len(u) for u in users], dtype=np.int64)
    rep_ptr = np.zeros(len(users) + 1, dtype=np.int64)
    np.cumsum(degree, out=rep_ptr[1:])
    rep_start = np.array([t for u in users for t in u], dtype=np.float64)
    horizon = float(rep_start.max() + 10 * cfg.vf_span) if len(rep_start) else 10 * cfg.vf_span
    return TrafficTrace(
        arrival=arrival,
        degree=degree,
        rep_ptr=rep_ptr,
        rep_start=rep_start,
        horizon=horizon,
        load=0.01,
        vf_span=cfg.vf_span,
    )


def edge_placed_trace(rng, n_chains=4, n_loose=24):
    """A system and a degree-2 trace whose replicas sit on the receiver's
    step grid ``w(k) = w0 + k * step_length``, ``w0`` the first arrival
    minus the window length, where the last bits of ``w(k)`` decide who
    decodes. Returns ``(cfg, trace, edge_users)``.

    Each chain fires at one step ``k``: the clean replica of its last hop
    user is admitted at ``k``, and cancelling each hop user frees a replica
    of the one before, down to a replica of an edge user that starts exactly
    at ``w(k)``, so that step ``k`` is the last whose window holds it. The
    edge user's other replica sits in a cluster with a stuck pair, so the
    edge user decodes at ``k`` or never. The loose users after the chains,
    alone or in stuck pairs, start at ``w(k)``, at
    ``w(k) + window_length - 1`` (admission) or at ``w(k) - vf_span``
    (expiry); their second replica starts on the grid or anywhere in the
    virtual frame.
    """
    vf = float(rng.uniform(3.9, 5.9))
    cfg = SystemConfig.from_db(6.0, float(rng.uniform(1.5, 2.2)), vf,
                               window_span=float(rng.uniform(1.0 + 1.0 / vf, 3.0)),
                               window_step=float(rng.uniform(0.1, 0.7)))
    win, step = cfg.window_length, cfg.step_length
    w0 = 0.0 - win  # the first arrival is 0.0

    def first_step(t):
        return math.ceil((t - w0) / step) + 1

    users = [(0.0, 1.2)]
    edge = []
    k = first_step(5.0)
    for _ in range(n_chains):
        r = w0 + k * step
        b = r - 1.3
        # a stuck pair, then the edge user, whose first replica b sits
        # between two of the pair's and whose second starts at w(k)
        users += [(b - 1.35, b - 0.15), (b - 1.05, b + 0.15), (b, r)]
        edge.append(users[-1])
        # hop users from r + 0.3 up to the clean replica admitted at step k;
        # each hop's first replica overlaps the previous replica by 0.7
        x, end = r + 0.3, r + win - 1.0 - step / 4
        n = math.ceil((end - x + 0.3) / (vf - 0.7))
        span = (end - x - 0.3 * (n - 1)) / n
        assert 1.0 <= span <= vf - 1.0
        for _ in range(n):
            users.append((x, x + span))
            x += span + 0.3
        k = first_step(end + 4.2) + int(rng.integers(0, 3))
    t = w0 + k * step
    for _ in range(n_loose):
        kind = int(rng.integers(0, 3))
        k = first_step(t - (0.0, win - 1.0, -vf)[kind]) + int(rng.integers(0, 3))
        w = w0 + k * step
        s = (w, w + win - 1.0, w - vf)[kind]
        s2 = w0 + first_step(s + 1.0) * step
        if s2 > s + vf - 1.0 or rng.integers(0, 2):
            s2 = s + float(rng.uniform(1.0, vf - 1.0))
        users.append((s, s2))
        if rng.integers(0, 3) == 0:  # a stuck pair, lost at its expiry step
            users.append((s + 0.3, s2 + 0.3))
        t = s2 + 1.5
    users.sort(key=lambda u: u[0])
    return cfg, manual_trace(cfg, users), np.array([users.index(u) for u in edge])
