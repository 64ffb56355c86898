"""Statistics of the benchmark: inputs, the tail percentile, span self time, headroom.

Pure functions of plain numbers, so they can be tested on synthetic inputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

TAIL_BEYOND = 10


def spread_points(n: int, offset: float) -> list[float]:
    """``n`` points of the golden-ratio sequence in ``[0, 1)``, shifted by ``offset``.

    Point ``i`` is ``frac(offset + (i + 1) / phi)``.  Any ``m >= 2``
    consecutive points leave gaps (around the circle) of at most three
    lengths, all below ``2 / m``, so a run's points spread evenly whatever
    the offset.
    """
    step = (5.0 ** 0.5 - 1.0) / 2.0
    return [(offset + (i + 1) * step) % 1.0 for i in range(n)]


def tail_percentile(samples: Sequence[float], beyond: int = TAIL_BEYOND):
    """The highest percentile that has at least ``beyond`` samples above it.

    Returns ``(percentile, value, n)``: the sample of rank ``n - beyond``
    (1-based, ascending), which has exactly ``beyond`` samples ranked after
    it, and its percentile ``100 (n - beyond) / n``.  Returns None when there
    are ``beyond`` samples or fewer, where no such percentile exists.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return None
    rank = n - beyond
    return 100.0 * rank / n, ordered[rank - 1], n


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover.

    Children may run on other threads and overlap one another; overlapping
    parts count once, and parts outside the parent's interval not at all.
    """
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in children]
    return (end - start) - union_length((lo, hi) for lo, hi in clipped if hi > lo)


def headroom(error: float, tolerance: float) -> float:
    """``1 - |error| / tolerance``: 1 on target, 0 at the tolerance, < 0 beyond."""
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    return 1.0 - abs(error) / tolerance
