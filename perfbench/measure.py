"""Small, dependency-free helpers shared by the runner and the tracer.

Kept apart from the runner so that the unit tests in ``perfbench/tests`` can
check the arithmetic without importing ``wellqc`` or running a workload.
"""

import math
import re
import statistics

# A metric name starts with a letter or digit and uses at most 64 of
# [A-Za-z0-9_.-].
_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# The tail percentile must leave at least this many samples above it.
TAIL_MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return bool(_METRIC_NAME.fullmatch(name))


def nearest_rank(values, p: float) -> float:
    """The p-th percentile (0 < p <= 100) by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def tail_percentile(n: int, min_beyond: int = TAIL_MIN_BEYOND, floor: int = 50) -> int:
    """The highest whole percentile in [floor, 99] with >= min_beyond samples above it.

    With nearest rank, the p-th percentile of n samples is the
    ceil(p*n/100)-th smallest, so n - ceil(p*n/100) samples lie beyond it.
    When even the floor leaves fewer than ``min_beyond`` (n < 2*min_beyond at
    floor 50), the floor is returned: the tail then equals the median, and
    the caller records the sample count so the reader can see why.
    """
    best = floor
    for p in range(floor, 100):
        if n - math.ceil(p * n / 100) >= min_beyond:
            best = p
    return best


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
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


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its children cover.

    Children that run concurrently (grid cells on worker threads) overlap;
    the union is subtracted once, and child time outside the parent's own
    interval is ignored.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in child_intervals if e > start and s < end]
    return (end - start) - union_length(clipped)


def median(values) -> float:
    return float(statistics.median(values))


def modal(values):
    """Most common value; ties go to the larger one."""
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return max(counts, key=lambda v: (counts[v], v))


def iqr_share(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")
