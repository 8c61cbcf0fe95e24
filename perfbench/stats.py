"""Order statistics and span arithmetic shared by the benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass


def nearest_rank(samples: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    samples: int
    beyond: int


def tail(samples: list[float], beyond: int = 10, ladder: tuple[float, ...] = TAIL_LADDER) -> Tail:
    """The highest percentile of the ladder that has at least ``beyond``
    samples above it, by the nearest-rank rule.

    With too few samples for any rung the maximum is reported, and
    ``beyond`` says how many samples really lie above the reported value.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return Tail(0.0, 0.0, 0, 0)
    for percentile in ladder:
        rank = max(1, math.ceil(percentile / 100.0 * n))
        if n - rank >= beyond:
            return Tail(ordered[rank - 1], percentile, n, n - rank)
    return Tail(ordered[-1], 100.0, n, 0)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    goal: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children running concurrently are merged first, so overlapping children
    are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration - covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }
