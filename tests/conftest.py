import numpy as np
import pytest

from irasim.model import DegreeDistribution, SystemConfig
from irasim.traffic import TrafficTrace


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
    return DegreeDistribution.regular(2)


@pytest.fixture(scope="session")
def dist_x3():
    return DegreeDistribution.regular(3)


@pytest.fixture(scope="session")
def dist_lambda1():
    return DegreeDistribution.from_pairs([(2, 0.263), (3, 0.344), (5, 0.393)])


@pytest.fixture(scope="session")
def dist_lambda2():
    return DegreeDistribution.from_pairs([(2, 0.51), (4, 0.49)])


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
