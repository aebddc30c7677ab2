"""Per-replica interference bookkeeping and decodability under the block
interference channel.

A replica sees a piecewise-constant number of concurrent interferers over its
duration. With equal received powers the instantaneous SINR under k
interferers is ``snr / (1 + k * snr)``, and a replica decodes when the code
rate does not exceed the length-weighted average of ``log2(1 + SINR)`` over
the replica. The average is evaluated exactly on the constant-interference
segments, i.e. in the limit of infinitely fine symbol resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import T_P, TimeInterval


@dataclass(frozen=True)
class InterferenceTimeline:
    """Contiguous segments ``(interval, interferer_count)`` covering a replica."""

    segments: tuple[tuple[TimeInterval, int], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("timeline must cover the replica with at least one segment")
        prev_end = self.segments[0][0].begin
        for iv, k in self.segments:
            if iv.begin != prev_end:
                raise ValueError("timeline segments must be contiguous")
            if k < 0:
                raise ValueError("interferer count cannot be negative")
            prev_end = iv.end

    @property
    def begin(self) -> float:
        return self.segments[0][0].begin

    @property
    def end(self) -> float:
        return self.segments[-1][0].end

    @property
    def max_count(self) -> int:
        return max(k for _, k in self.segments)


@dataclass(frozen=True)
class DecodabilityReport:
    avg_mi: float
    decodable: bool

    def __post_init__(self) -> None:
        # the two fields are redundant on purpose; keep them consistent
        if not isinstance(self.decodable, bool):
            raise ValueError("decodable must be a boolean")


def symbol_mi(snr: float, interferers: int) -> float:
    """Mutual information of one symbol under ``interferers`` equal-power users."""
    return math.log2(1.0 + snr / (1.0 + interferers * snr))


def clean_fraction(snr: float, rate: float) -> float:
    """Share ``phi`` of a packet that must stay clean for it to decode next to
    one equal-power interferer, clamped to ``[0, 1]``.

    ``phi`` solves ``phi * I0 + (1 - phi) * I1 = rate`` with ``I0`` and ``I1``
    the symbol MI under zero and one interferer. A single interferer starting
    less than ``phi`` packet durations away is therefore fatal; ``phi = 1``
    once ``rate >= I0``. Pure and silent; :func:`irasim.errorfloor.
    vulnerable_fraction` adds the validation and the regime warning.
    """
    i0 = symbol_mi(snr, 0)
    i1 = symbol_mi(snr, 1)
    if rate >= i0:
        return 1.0
    return max(0.0, (rate - i1) / (i0 - i1))


def build_timeline(
    replica: TimeInterval, active_others: Iterable[TimeInterval]
) -> InterferenceTimeline:
    """Piecewise-constant interferer count over the replica interval.

    Counts change only where an interfering interval enters or leaves the
    replica; boundaries are assigned to the right-open side, which leaves all
    integrals unchanged.
    """
    events: list[tuple[float, int]] = []
    for other in active_others:
        a = max(replica.begin, other.begin)
        b = min(replica.end, other.end)
        if b > a:
            events.append((a, +1))
            events.append((b, -1))
    events.sort(key=lambda e: e[0])

    segments: list[tuple[TimeInterval, int]] = []
    prev = replica.begin
    run = 0
    i = 0
    while i < len(events):
        pos = events[i][0]
        if pos > prev:
            segments.append((TimeInterval(prev, pos), run))
            prev = pos
        while i < len(events) and events[i][0] == pos:
            run += events[i][1]
            i += 1
    if prev < replica.end:
        segments.append((TimeInterval(prev, replica.end), run))
    return InterferenceTimeline(tuple(segments))


def avg_mutual_information(
    tl: InterferenceTimeline, snr: float, packet_duration: float = T_P
) -> float:
    """Length-weighted average mutual information over the replica."""
    acc = 0.0
    for iv, k in tl.segments:
        acc += iv.length * symbol_mi(snr, k)
    return acc / packet_duration


def is_decodable(avg_mi: float, rate: float) -> bool:
    """Decoding succeeds exactly when the rate does not exceed the average MI."""
    return rate <= avg_mi


def assess_replica(
    replica: TimeInterval,
    active_others: Sequence[TimeInterval],
    snr: float,
    rate: float,
    packet_duration: float = T_P,
) -> DecodabilityReport:
    mi = avg_mutual_information(build_timeline(replica, active_others), snr, packet_duration)
    return DecodabilityReport(avg_mi=mi, decodable=is_decodable(mi, rate))


def quantized_avg_mi(tl: InterferenceTimeline, snr: float, n_symbols: int) -> float:
    """Average MI after quantising the replica into ``n_symbols`` equal symbols.

    Each symbol takes the interferer count at its midpoint. Converges to
    :func:`avg_mutual_information` as ``n_symbols`` grows; used to bound the
    effect of ignoring the symbol grid.
    """
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
        acc += symbol_mi(snr, segments[idx][1])
    return acc / n_symbols
