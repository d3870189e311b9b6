"""Aggregation helpers for perfbench/run.py: percentiles, span self time and
digest-group checks. Pure functions, covered by perfbench/test_stats.py."""

import math

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    return percentile(values, 50.0)


def percentile(values, p):
    """Linear-interpolated percentile `p` (0..100) of `values`."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND of
    `count` samples beyond it, or None when even the median has fewer."""
    chosen = None
    for p in TAIL_LADDER:
        # Rounded: 100 * (1 - 0.9) is 9.999999999999998 in binary.
        if round(count * (100.0 - p) / 100.0, 6) >= TAIL_MIN_BEYOND:
            chosen = p
    return chosen


def self_times(spans):
    """Maps span id -> duration minus the part of its interval that its
    direct children cover (overlapping children are counted once)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def self_time_samples(spans, name, selfs=None):
    """Self times of every span called `name`, in recording order."""
    if selfs is None:
        selfs = self_times(spans)
    return [selfs[span["id"]] for span in spans if span["name"] == name]


def span_durations(spans, name):
    """Durations of every span called `name`, in recording order."""
    return [span["end"] - span["start"] for span in spans
            if span["name"] == name]


def under_root(spans, root_name):
    """The spans whose outermost enclosing span (or they themselves, if
    top-level) is called `root_name`."""
    by_id = {span["id"]: span for span in spans}

    def root(span):
        while span["parent"] != 0:
            span = by_id[span["parent"]]
        return span

    return [span for span in spans if root(span)["name"] == root_name]


def disagreeing_groups(groups):
    """Names of digest groups that fail their check: fewer than two
    digests (nothing was compared) or digests that differ."""
    return sorted(name for name, digests in groups.items()
                  if len(digests) < 2 or len(set(digests)) != 1)
