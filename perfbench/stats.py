"""Statistics of the repository benchmark: medians and quartiles of run
values, tail percentiles of latency samples, and self times of the
traced run's spans. `test_stats.py` covers every function here."""

import math
import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    `statistics.quantiles(values, n=4)` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def nearest_rank(sorted_samples, p):
    """The nearest-rank `p` percentile (0 < p <= 1) of sorted samples."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p * len(sorted_samples)))
    return sorted_samples[rank - 1]


def tail_percentile(sorted_samples, p=0.99, min_beyond=10):
    """The `p` percentile if at least `min_beyond` samples lie beyond it,
    else the highest percentile that has that many beyond it (never
    below the median). Returns `(value, percentile used)`."""
    n = len(sorted_samples)
    if n == 0:
        raise ValueError("no samples")
    used = p
    if n - math.ceil(p * n) < min_beyond:
        # The largest q with n - ceil(q*n) >= min_beyond is (n - min_beyond) / n.
        used = max(0.5, (n - min_beyond) / n)
    return nearest_rank(sorted_samples, used), used


def windows(pairs, width, count):
    """Splits `(time, value)` pairs into `count` consecutive windows of
    `width` starting at time 0; returns each window's values. Pairs past
    the last window are dropped."""
    out = [[] for _ in range(count)]
    for t, value in pairs:
        k = int(t // width)
        if 0 <= k < count:
            out[k].append(value)
    return out


def windowed_tail(pairs, width, count, p=0.99):
    """Median over the windows of each window's tail percentile: the
    tail a typical stretch of the run sees, which a burst of outside
    interference confined to a few windows does not move."""
    tails = [tail_percentile(sorted(w), p)[0] for w in windows(pairs, width, count) if w]
    return median(tails)


def windowed_rate(times, width, count):
    """Median over the windows of events per unit of time."""
    return median([len(w) / width for w in windows([(t, None) for t in times], width, count)])


def union_length(intervals):
    """Total length covered by a set of `(start, end)` intervals."""
    total = 0
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


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that the union of its children's intervals covers.

    `spans` are `(id, parent, name, start, end)` rows, parent -1 for a
    root. Returns `{id: self time}`."""
    children = {}
    for sid, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(sid, [])
            if min(e, end) > max(s, start)
        ]
        out[sid] = (end - start) - union_length(clipped)
    return out


def subtree(spans, root_id):
    """Ids of `root_id` and every span below it."""
    below = {root_id}
    for sid, parent, *_ in spans:  # spans are recorded parent-first
        if parent in below:
            below.add(sid)
    return below
