"""Statistics the benchmark reports: percentiles and span self time.

Pure Python, no numpy, so the arithmetic can be tested on its own.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import NamedTuple, Sequence

# Percentiles tried from the top; the first with enough samples beyond it is reported.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
SETUP = -1  # the request id of spans recorded during set-up


class Span(NamedTuple):
    """One timed call: ``parent`` indexes the enclosing span, -1 at top level."""

    name: str
    start: float
    end: float
    parent: int
    request: int


def nearest_rank(ordered: Sequence[float], p: float) -> tuple[float, int]:
    """The p-th percentile of sorted values by nearest rank, and how many
    samples lie beyond that rank."""
    k = max(1, math.ceil(p * len(ordered) / 100.0 - 1e-9))  # 1e-9: 99.9% of 10000 is 9990
    return ordered[k - 1], len(ordered) - k


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """(p, value) for the highest ladder percentile that has at least
    ``MIN_BEYOND`` samples beyond it; None when there are too few samples."""
    ordered = sorted(values)
    if not ordered:
        return None
    for p in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= MIN_BEYOND:
            return p, value
    return None


def describe(values: Sequence[float], unit: str) -> str:
    """Median, the tail percentile the sample count supports, and the count."""
    text = f"{statistics.median(values):.6g} {unit} p50"
    tail = tail_percentile(values)
    if tail is None:
        text += f" (no tail percentile below {2 * MIN_BEYOND} samples"
    else:
        text += f" (p{tail[0]:g} {tail[1]:.6g} {unit}"
    return text + f", n={len(values)})"


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        covered = union_length([(a, b) for a, b in clipped if b > a])
        out.append((s.end - s.start) - covered)
    return out


def layer_self_ms(spans: Sequence[Span], units: int = 1) -> dict[str, float]:
    """Self time per layer, the layer being the span name's first part: the
    set-up spans' sum plus the unit spans' sum divided by ``units``."""
    totals: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        totals[s.name.split(".", 1)[0]] += own * 1e3 / (1 if s.request == SETUP else units)
    return dict(totals)


def top_level_coverage(spans: Sequence[Span], wall_start: float, wall_end: float) -> float:
    """Share of the wall interval covered by spans that have no parent."""
    wall = wall_end - wall_start
    if wall <= 0:
        return 0.0
    tops = [(max(s.start, wall_start), min(s.end, wall_end)) for s in spans if s.parent < 0]
    return union_length([(a, b) for a, b in tops if b > a]) / wall
