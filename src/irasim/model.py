"""Domain types shared by the traffic generator, the receiver and the
analytical error-floor machinery.

Conventions
-----------
The packet duration is the time unit: one replica lasts exactly 1, so every
time in the package, from replica starts to window lengths, is a number of
packet durations, and no type carries a packet duration of its own. A
virtual frame spans ``vf_span`` packet durations, the channel load is given
in packet arrivals per packet duration, and the signal-to-noise ratio is a
linear power ratio (use :meth:`SystemConfig.from_db` for dB input).

All types here are immutable after construction and safe to share across
concurrent Monte Carlo workers. Records derive from :class:`_Record`, not
from the standard library's data classes, which cost each process an
``inspect`` import (about 11 ms on a 2-vCPU Xeon) and an ``exec`` per class
(about 1 ms each). ``receiver.SweepInputs`` stays a ``typing.NamedTuple``.
"""

from __future__ import annotations

import math
from functools import cached_property

#: Absolute tolerance on the degree distribution normalisation.
PROB_TOL = 1e-12


class ModelError(ValueError):
    """A physical parameter or distribution violates the system model."""


class InvalidPhysicalParameter(ModelError):
    pass


class NonNormalizedDistribution(ModelError):
    pass


class DegreeTooLargeForVF(ModelError):
    pass


class _Record:
    """A frozen record: its fields are the subclass's annotations, in order,
    with class attributes as defaults. It builds by position or keyword,
    runs ``__post_init__`` (which may set a field by ``object.__setattr__``),
    equals a record of its class with equal fields, hashes as its field
    tuple and pickles; ``_replace`` validates again through ``__init__``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._complete(args, kwargs)
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)  # not via __dict__, which slows every read
        self.__post_init__()

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> list:
        values = list(args)
        for name in cls._fields[len(args):]:
            if name not in kwargs and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__} misses field {name!r}")
            values.append(kwargs.pop(name, getattr(cls, name, None)))
        if kwargs or len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {cls._fields}, got {len(args)} values and {sorted(kwargs)}")
        return values

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class TimeInterval(_Record):
    """A span ``[begin, end]`` on the continuous time axis, packet units."""

    begin: float
    end: float

    def __post_init__(self) -> None:
        if not self.begin < self.end:
            raise InvalidPhysicalParameter(
                f"interval must have begin < end, got [{self.begin}, {self.end}]"
            )

    @property
    def length(self) -> float:
        return self.end - self.begin

    def shifted(self, dt: float) -> "TimeInterval":
        return TimeInterval(self.begin + dt, self.end + dt)


class SystemConfig(_Record):
    """Physical and receiver parameters of one scenario.

    ``snr_linear`` is the received power over noise power ratio (equal for all
    users, perfect power control), ``rate`` the code rate in bits per symbol,
    ``vf_span`` the virtual frame duration in packet units. The receiver
    operates on a sliding window of ``window_span`` virtual frames, advanced
    by ``window_step`` virtual frames whenever decoding stalls.
    """

    snr_linear: float
    rate: float
    vf_span: float
    window_span: float = 3.0
    window_step: float = 0.1

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def from_db(cls, snr_db: float, rate: float, vf_span: float, **kwargs) -> "SystemConfig":
        """Build a config from an SNR quoted in dB."""
        try:
            snr_linear = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            raise InvalidPhysicalParameter(f"snr_db {snr_db} overflows the linear SNR") from None
        return cls(snr_linear=snr_linear, rate=rate, vf_span=vf_span, **kwargs)

    def validate(self) -> None:
        if not (math.isfinite(self.snr_linear) and self.snr_linear > 0):
            raise InvalidPhysicalParameter(f"snr_linear must be positive, got {self.snr_linear}")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise InvalidPhysicalParameter(f"rate must be positive, got {self.rate}")
        if not (math.isfinite(self.vf_span) and self.vf_span >= 2.0):
            # a virtual frame must fit at least two non-overlapping replicas
            raise InvalidPhysicalParameter(f"vf_span must be >= 2 packet durations, got {self.vf_span}")
        if not (math.isfinite(self.window_span) and math.isfinite(self.window_step)):
            raise InvalidPhysicalParameter(
                f"window_span and window_step must be finite, got {self.window_span}, {self.window_step}"
            )
        if self.window_span < 1.0 + 1.0 / self.vf_span:
            raise InvalidPhysicalParameter(
                "window must contain at least one full virtual frame plus a packet"
            )
        if not (0.0 < self.window_step <= self.window_span):
            raise InvalidPhysicalParameter(f"window_step must lie in (0, window_span], got {self.window_step}")

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.snr_linear)

    @property
    def window_length(self) -> float:
        return self.window_span * self.vf_span

    @property
    def step_length(self) -> float:
        return self.window_step * self.vf_span


class DegreeDistribution(_Record):
    """Probabilities over the number of replicas a user transmits.

    ``entries`` holds ``(degree, probability)`` pairs with distinct degrees
    >= 2 and probabilities summing to one.
    """

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        norm = tuple(sorted((int(d), float(p)) for d, p in self.entries))
        object.__setattr__(self, "entries", norm)
        self.validate()

    @classmethod
    def from_pairs(cls, pairs) -> "DegreeDistribution":
        return cls(tuple(pairs))

    @classmethod
    def regular(cls, degree: int) -> "DegreeDistribution":
        """Every user transmits exactly ``degree`` replicas."""
        return cls(((degree, 1.0),))

    def validate(self) -> None:
        if not self.entries:
            raise NonNormalizedDistribution("degree distribution has no entries")
        degrees = [d for d, _ in self.entries]
        if len(set(degrees)) != len(degrees):
            raise InvalidPhysicalParameter(f"duplicate degrees in {degrees}")
        for d, p in self.entries:
            if d < 2:
                raise InvalidPhysicalParameter(f"repetition degree must be >= 2, got {d}")
            if not (0.0 < p <= 1.0):
                raise InvalidPhysicalParameter(f"probability for degree {d} must be in (0, 1], got {p}")
        total = math.fsum(p for _, p in self.entries)
        if abs(total - 1.0) > PROB_TOL:
            raise NonNormalizedDistribution(f"degree probabilities sum to {total!r}, expected 1")

    @property
    def d_m(self) -> int:
        """Largest degree with positive probability."""
        return self.entries[-1][0]

    @cached_property
    def mean_degree(self) -> float:
        return math.fsum(d * p for d, p in self.entries)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.entries)

    def prob(self, degree: int) -> float:
        for d, p in self.entries:
            if d == degree:
                return p
        return 0.0


def validate_config(cfg: SystemConfig, dist: DegreeDistribution) -> None:
    """Re-check all invariants of a (config, distribution) pair.

    Raises :class:`InvalidPhysicalParameter`, :class:`NonNormalizedDistribution`
    or :class:`DegreeTooLargeForVF`; returns ``None`` when everything holds.
    """
    cfg.validate()
    dist.validate()
    if dist.d_m > cfg.vf_span:
        raise DegreeTooLargeForVF(
            f"{dist.d_m} replicas cannot fit a virtual frame of {cfg.vf_span} packet durations"
        )
