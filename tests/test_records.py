"""The contract of the package's frozen records (``model._Record``): field
order and defaults, construction by position and keyword, equality and
hashing by value, ``repr``, refused assignment, pickling, and a ``_replace``
that validates again."""

import pickle

import numpy as np
import pytest

from irasim.channel import InterferenceTimeline
from irasim.errorfloor import CollisionPattern, FloorParams, InfeasiblePattern
from irasim.harness import BatchResult, ConfigError, ExperimentConfig, PlrCurve, PlrRow
from irasim.model import DegreeDistribution, InvalidPhysicalParameter, SystemConfig, TimeInterval, _Record
from irasim.receiver import run_receiver
from irasim.traffic import TrafficTrace, generate_trace

SYSTEM = SystemConfig(4.0, 1.5, 20.0)
PARAMS = FloorParams(0.44, 25, 20.0)
ROW = PlrRow(0.2, 1000, 3, 3e-3, 1e-3, 9e-3, 2e-3)

#: Per record class: its fields in order, a function that builds one record, and a
#: valid change of one field.
RECORDS = {
    TimeInterval: (("begin", "end"), lambda: TimeInterval(0.5, 2.0), {"end": 3.0}),
    SystemConfig: (
        ("snr_linear", "rate", "vf_span", "window_span", "window_step"),
        lambda: SystemConfig(4.0, 1.5, 20.0),
        {"window_step": 0.2},
    ),
    DegreeDistribution: (("entries",), lambda: DegreeDistribution(((3, 0.5), (2, 0.5))), {"entries": ((2, 1.0),)}),
    InterferenceTimeline: (
        ("segments",),
        lambda: InterferenceTimeline(((TimeInterval(0.0, 0.5), 0), (TimeInterval(0.5, 1.0), 1))),
        {"segments": ((TimeInterval(0.0, 1.0), 2),)},
    ),
    TrafficTrace: (
        ("arrival", "degree", "rep_ptr", "rep_start", "horizon", "load", "vf_span"),
        # tuples in place of arrays, so that the record hashes
        lambda: TrafficTrace((0.0, 1.0), (2, 2), (0, 2, 4), (0.0, 3.0, 1.0, 5.0), 10.0, 0.2, 20.0),
        {"load": 0.3},
    ),
    CollisionPattern: (
        ("name", "profile", "num_sets", "iso_count"),
        lambda: CollisionPattern("d22-m2", [0, 2, 0, 0], 2, 1),
        {"iso_count": 2},
    ),
    FloorParams: (("phi", "n_v", "n_p"), lambda: FloorParams(0.44, 25, 20.0), {"n_v": 26}),
    ExperimentConfig: (
        ("system", "distribution", "load_grid", "min_users_per_point", "max_lost_events", "seed", "outputs"),
        lambda: ExperimentConfig(SYSTEM, DegreeDistribution.regular(2), [0.2, 0.3]),
        {"seed": 2},
    ),
    PlrRow: (
        ("load", "users", "lost", "plr_sim", "ci_lo", "ci_hi", "plr_analytic"),
        lambda: PlrRow(0.2, 1000, 3, 3e-3, 1e-3, 9e-3, 2e-3),
        {"lost": 4},
    ),
    PlrCurve: (("rows", "params", "analytic_only"), lambda: PlrCurve((ROW,), PARAMS), {"analytic_only": True}),
    BatchResult: (("users", "lost", "n_trace_users", "outcome_rows"), lambda: BatchResult(10, 1, 12), {"lost": 2}),
}


def test_every_record_class_is_covered():
    assert set(_Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, build, change = RECORDS[cls]
    a, b = build(), build()
    assert cls._fields == fields
    values = tuple(getattr(a, name) for name in fields)
    # value equality and hashing, by class and fields
    assert a == b and a is not b and hash(a) == hash(b)
    assert cls(*values) == a == cls(**dict(zip(fields, values)))
    assert a != values and a._replace(**change) != a
    assert repr(a) == f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(fields, values))})"
    for name in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    again = pickle.loads(pickle.dumps(a))
    assert again == a and hash(again) == hash(a) and repr(again) == repr(a)
    ((name, value),) = change.items()
    assert a._replace() == a and getattr(a._replace(**change), name) == value


def test_construction_checks_its_arguments():
    with pytest.raises(TypeError):
        TimeInterval(0.0)
    with pytest.raises(TypeError):
        TimeInterval(0.0, 1.0, 2.0)
    with pytest.raises(TypeError):
        TimeInterval(0.0, 1.0, length=1.0)
    with pytest.raises(TypeError):
        TimeInterval(0.0, begin=0.5, end=1.0)
    assert SystemConfig(snr_linear=4.0, rate=1.5, vf_span=20.0, window_step=0.2).window_span == 3.0


def test_post_init_normalises_and_validates():
    dist = DegreeDistribution([(3, 0.5), (2, 0.5)])
    assert dist.entries == ((2, 0.5), (3, 0.5)) and dist.mean_degree == 2.5
    assert pickle.loads(pickle.dumps(dist)).mean_degree == 2.5
    assert ExperimentConfig(SYSTEM, dist, [0.2]).load_grid == (0.2,)
    with pytest.raises(InvalidPhysicalParameter):
        TimeInterval(1.0, 1.0)


@pytest.mark.parametrize(
    "record, change, error",
    [
        (ExperimentConfig(SYSTEM, DegreeDistribution.regular(2), (0.2,)), {"seed": -1}, ConfigError),
        (CollisionPattern("d22-m2", (0, 2, 0, 0), 2, 1), {"num_sets": 0}, InfeasiblePattern),
        (TimeInterval(0.5, 2.0), {"end": 0.5}, InvalidPhysicalParameter),
    ],
    ids=["ExperimentConfig", "CollisionPattern", "TimeInterval"],
)
def test_replace_validates_again(record, change, error):
    with pytest.raises(error):
        record._replace(**change)


def test_traffic_trace_builds_positionally_from_a_slice():
    # as the benchmark's receiver oracle cuts a generated trace short
    full = generate_trace(SYSTEM, DegreeDistribution.regular(2), 0.3, 400.0, np.random.default_rng(3))
    k = 20
    ptr = full.rep_ptr[: k + 1]
    trace = TrafficTrace(full.arrival[:k], full.degree[:k], ptr, full.rep_start[: ptr[-1]],
                         full.horizon, full.load, full.vf_span)
    assert (trace.n_users, trace.n_replicas, trace.horizon, trace.load) == (k, ptr[-1], 400.0, 0.3)
    kernel = run_receiver(trace, SYSTEM)
    reference = run_receiver(trace, SYSTEM, engine="reference")
    assert all(np.array_equal(x, y) for x, y in zip(kernel, reference))
