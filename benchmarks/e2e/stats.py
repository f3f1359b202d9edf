"""Small-sample statistics shared by the benchmark, compare.py and the tests.

Everything here is exact arithmetic on lists of numbers: nearest-rank
percentiles (no interpolation, so a percentile is always one of the
samples and repeats bit-for-bit), the sample-count rule that decides
which percentile a window supports, the quartile summary written for
host-time metrics, and the ladder rule behind
``sim_max_rate_in_slo_ops_s``.
"""

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank *q*-th percentile (0 < q <= 100) of *samples*."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100], got %r" % (q,))
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def supports_percentile(count, q):
    """True when *count* samples leave >= 10 of them beyond the q-th."""
    # 1e-9: 10000 * (100 - 99.9) / 100 is 9.999999999999432 in floats.
    return count * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9


def summary(values):
    """Median, quartiles and raw samples of one host-time metric."""
    values = list(values)
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "samples": values,
    }


def iqr_share(values):
    """Inter-quartile range as a share of the median (the spread rule)."""
    stats = summary(values)
    if stats["median"] == 0:
        return 0.0 if stats["q3"] == stats["q1"] else float("inf")
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def max_rate_in_slo(steps, slo_ms):
    """Highest ladder rate whose step, and every lower step, met the SLO.

    *steps* is ``[(rate, write_p99_ms, unanswered), ...]``.  A step
    passes when its write p99 is within *slo_ms* and no operation was
    left unanswered after its drain (an unanswered op misses any
    latency limit).  A failing lower step caps the result even when a
    higher step happens to pass: past the knee a backlog is growing and
    a lucky window does not make the rate sustainable.  Returns 0 when
    the lowest step already fails.
    """
    best = 0
    for rate, p99_ms, unanswered in sorted(steps):
        if p99_ms is None or p99_ms > slo_ms or unanswered:
            break
        best = rate
    return best
