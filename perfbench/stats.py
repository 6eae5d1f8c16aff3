"""Summary statistics with the benchmark's percentile discipline.

A percentile is published only when at least MIN_BEYOND distinct samples
lie beyond it, and always together with its sample count, so a tail figure
never rests on one or two rounds, not even when they were timed repeatedly.
"""

import math

MIN_BEYOND = 10


def rank(n, q):
    """1-based nearest rank of the q-quantile (0 < q <= 1) of n samples."""
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile out of range: %r" % q)
    return max(1, math.ceil(q * n - 1e-9))


def nearest_rank(sorted_values, q):
    """Nearest-rank q-quantile of an ascending list, and the number of
    samples strictly beyond its rank."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    r = rank(n, q)
    return sorted_values[r - 1], n - r


def percentile(values, q, distinct=None, min_beyond=MIN_BEYOND):
    """(value, n, beyond) of the q-quantile of n samples, where `beyond`
    counts distinct samples.

    `distinct` is how many different samples `values` holds when it pools
    repeats of the same rounds (default: all n). Raises ValueError when
    fewer than min_beyond distinct samples lie beyond the q-quantile,
    however often each was repeated.
    """
    s = sorted(values)
    value, _ = nearest_rank(s, q)
    distinct = len(s) if distinct is None else distinct
    if not 0 < distinct <= len(s):
        raise ValueError("distinct count %r out of range for %d samples" % (distinct, len(s)))
    beyond = distinct - rank(distinct, q)
    if beyond < min_beyond:
        raise ValueError(
            "p%g of %d distinct samples has %d beyond it; need %d"
            % (q * 100, distinct, beyond, min_beyond))
    return value, len(s), beyond


def median(values):
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, n=4); 0 for fewer than two values."""
    import statistics
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
