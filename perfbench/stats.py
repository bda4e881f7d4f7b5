"""Statistics and gate logic of the benchmark (no third-party imports).

Timings are reported as a median and a tail: the highest percentile of a
fixed ladder that still has at least ten samples beyond it. A workload
fixes its tail percentile in workloads.json and runs until it has the
sample count that percentile needs, so the reported tail means the same
thing on every run.
"""

import math
import statistics

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, q):
    """Linearly interpolated q-th percentile (0 <= q <= 100) of values."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n sorted samples lie strictly above the q-th percentile's
    interpolation position."""
    if n <= 0:
        return 0
    return n - 1 - math.floor((n - 1) * q / 100.0)


def min_samples(q, beyond=MIN_BEYOND):
    """The fewest samples for which the q-th percentile has `beyond` samples
    beyond it."""
    if q >= 100.0:
        raise ValueError("no sample count puts samples beyond the maximum")
    n = beyond + 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def tail_percentile(n, ladder=TAIL_LADDER, beyond=MIN_BEYOND):
    """Highest ladder percentile with at least `beyond` of n samples beyond
    it; None when even the lowest rung has too few."""
    best = None
    for q in ladder:
        if samples_beyond(n, q) >= beyond:
            best = q
    return best


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def worse_by(base_median, change_median, better):
    """Relative amount by which change_median is worse than base_median
    (negative when it is better)."""
    if base_median == 0:
        raise ValueError("relative change against a zero median")
    rel = (change_median - base_median) / abs(base_median)
    if better == "lower":
        return rel
    if better == "higher":
        return -rel
    raise ValueError("better must be 'lower' or 'higher'")


def regressed(base_values, change_values, better, bound):
    """True when the change's median is worse than the base's median by more
    than `bound` (a share of the base median)."""
    return worse_by(statistics.median(base_values), statistics.median(change_values),
                    better) > bound
