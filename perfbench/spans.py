"""Span arithmetic for the traced run: self time and attributed share.

A span is (span_id, name, parent_id, start, end) with times in seconds from
one monotonic clock. Children may overlap each other (worker threads), so a
span's self time is its duration minus the length of the union of its
children's intervals, clipped to the span itself.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, NamedTuple


class Span(NamedTuple):
    span_id: int
    name: str
    parent: int | None
    start: float
    end: float


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals after clipping each to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the part its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - union_length(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def self_time_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Sum of self times per span name (busy time when spans overlap)."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.span_id]
    return dict(totals)


def attributed_share(spans: Iterable[Span], lo: float, hi: float, reported) -> float:
    """Share of [lo, hi] that a reported span's self time accounts for.

    The rest is time outside every top-level span plus the self time of each
    span whose name fails ``reported(name)``: a catch-all span such as a CLI
    command, or a wrapped function that no metric reports.
    """
    if hi <= lo:
        raise ValueError("empty interval")
    spans = list(spans)
    own = self_times(spans)
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    outside = (hi - lo) - union_length(roots, lo, hi)
    unreported = sum(own[s.span_id] for s in spans if not reported(s.name))
    return 1.0 - (outside + unreported) / (hi - lo)
