"""In-memory spans, self time, and the percentile rule.

Every timing in this benchmark uses ``time.perf_counter()``, which on
Linux reads ``CLOCK_MONOTONIC``: one clock shared by every process on
the host, so spans recorded in the server worker and timestamps taken
by the load generator can be placed on one timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles tried, highest first, by :func:`tail_percentile`.
PERCENTILE_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *values* (``q`` in 0..100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank *q* percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    samples beyond it: ``(value, percentile, sample_count)``.

    A p99 read from 300 samples rests on three values; this rule names
    the percentile the sample actually supports instead.  Fewer than
    ``MIN_BEYOND + 1`` samples support none, and the maximum is
    returned as percentile 100.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail percentile of an empty sample")
    for q in PERCENTILE_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return percentile(values, q), q, n
    return max(values), 100.0, n


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class Span:
    """One timed call: name, start, end and the span that caused it."""

    name: str
    start: float
    end: float
    sid: int = 0
    parent: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: Iterable[Span]) -> float:
    """*span*'s duration minus the part of it its children cover.

    Children are clipped to the parent's interval and their overlap is
    counted once, so two concurrent children never drive the parent's
    self time below zero.
    """
    clipped = [
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    ]
    return span.duration - union_length(clipped)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by ``sid``; children are found
    through their ``parent`` link."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {s.sid: self_time(s, children.get(s.sid, ())) for s in spans}


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name."""
    per_span = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + per_span[span.sid]
    return totals
