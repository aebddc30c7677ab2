"""Continuous-time traffic generation: Poisson arrivals, degree sampling and
self-interference-free replica placement inside each user's virtual frame.

All randomness flows through an explicit :class:`numpy.random.Generator`;
independently seeded generators may produce traces concurrently.
"""

from __future__ import annotations

import math
import numpy as np

from .model import DegreeDistribution, ModelError, SystemConfig, _Record, validate_config


class HorizonTooShort(ModelError):
    pass


_ARRIVAL_CHUNK = 8192

#: Cap on the expected users ``load * horizon`` of one trace, checked before
#: any draw. The largest trace in the shipped configs, the tests and the
#: benchmark holds about 31k users (load 0.75 over a 200-frame batch).
MAX_TRACE_USERS = 5_000_000


def sample_degrees(dist: DegreeDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` repetition degrees by inverting the distribution's CDF."""
    degrees = np.asarray(dist.degrees, dtype=np.int64)
    cum = np.cumsum(np.asarray(dist.probabilities))
    u = rng.random(n)
    idx = np.searchsorted(cum, u, side="right")
    np.clip(idx, 0, len(degrees) - 1, out=idx)
    return degrees[idx]


def _relative_offsets(
    degree: int, count: int, cfg: SystemConfig, rng: np.random.Generator
) -> np.ndarray:
    """(count, degree-1) matrix of offsets from the arrival, sorted per row.

    Sorted uniforms on the slack ``vf_span - degree`` plus one packet of gap
    per replica: exactly the uniform law over the starts in ``[0, vf_span -
    1]`` that lie pairwise, the arrival's included, at least one packet
    apart, also when the slack is 0. ``validate_config`` keeps the slack
    non-negative.
    """
    y = np.sort(rng.uniform(0.0, cfg.vf_span - degree, size=(count, degree - 1)), axis=1)
    return y + np.arange(1, degree)


class TrafficTrace(_Record):
    """A generated trace in flat array form.

    ``arrival`` and ``degree`` are per-user (sorted by arrival); replica start
    times are stored user-major in ``rep_start`` with CSR offsets ``rep_ptr``
    (user ``u`` owns ``rep_start[rep_ptr[u]:rep_ptr[u+1]]``, sorted).
    """

    arrival: np.ndarray
    degree: np.ndarray
    rep_ptr: np.ndarray
    rep_start: np.ndarray
    horizon: float
    load: float
    vf_span: float

    @property
    def n_users(self) -> int:
        return len(self.arrival)

    @property
    def n_replicas(self) -> int:
        return len(self.rep_start)

    def dump_replicas(self, stream) -> None:
        """One line per replica: ``user_id,degree,replica_index,start_time``."""
        stream.write("user_id,degree,replica_index,start_time\n")
        for u in range(self.n_users):
            deg = int(self.degree[u])
            base = int(self.rep_ptr[u])
            for r in range(deg):
                stream.write(f"{u},{deg},{r},{self.rep_start[base + r]:.12g}\n")


def check_trace(cfg: SystemConfig, dist: DegreeDistribution, load: float, horizon: float) -> None:
    """The checks :func:`generate_trace` makes before its first draw; each
    failure raises a :class:`ModelError`."""
    if not (math.isfinite(load) and load > 0):
        raise ModelError(f"load must be finite and positive, got {load}")
    if not math.isfinite(horizon):
        raise ModelError(f"horizon must be finite, got {horizon}")
    if load * horizon > MAX_TRACE_USERS:
        raise ModelError(f"load * horizon = {load * horizon:.3g} users, more than {MAX_TRACE_USERS}")
    validate_config(cfg, dist)
    if horizon < cfg.window_length:
        raise HorizonTooShort(
            f"horizon {horizon} shorter than one receiver window {cfg.window_length}"
        )


def generate_trace(
    cfg: SystemConfig,
    dist: DegreeDistribution,
    load: float,
    horizon: float,
    rng: np.random.Generator,
) -> TrafficTrace:
    """Poisson arrivals of intensity ``load`` over ``[0, horizon]`` with
    independently sampled degrees and replica placements."""
    check_trace(cfg, dist, load, horizon)
    parts = []
    last = 0.0
    scale = 1.0 / load
    while last <= horizon:
        gaps = rng.exponential(scale, _ARRIVAL_CHUNK)
        chunk = np.cumsum(gaps) + last
        parts.append(chunk)
        last = float(chunk[-1])
    arrival = np.concatenate(parts)
    arrival = arrival[arrival <= horizon]
    n = len(arrival)

    degree = sample_degrees(dist, n, rng)
    rep_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=rep_ptr[1:])
    rep_start = np.empty(int(rep_ptr[-1]), dtype=np.float64)

    # fill per degree class, ascending, so the rng call order is fixed;
    # bincount, unlike np.unique, does not import numpy.ma
    for d in np.flatnonzero(np.bincount(degree)).tolist():
        idx = np.nonzero(degree == d)[0]
        rel = _relative_offsets(d, len(idx), cfg, rng)
        block = np.concatenate([np.zeros((len(idx), 1)), rel], axis=1) + arrival[idx][:, None]
        flat_idx = rep_ptr[idx][:, None] + np.arange(d)[None, :]
        rep_start[flat_idx.ravel()] = block.ravel()

    return TrafficTrace(
        arrival=arrival,
        degree=degree,
        rep_ptr=rep_ptr,
        rep_start=rep_start,
        horizon=float(horizon),
        load=float(load),
        vf_span=cfg.vf_span,
    )
