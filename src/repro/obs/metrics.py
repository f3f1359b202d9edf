"""Counters, gauges, and streaming histograms behind one registry.

A :class:`MetricsRegistry` is the cluster-wide home for operational
numbers.  Three primitive kinds:

- :class:`Counter` — monotonically increasing count (commits, drops);
- :class:`Gauge` — instantaneous value, either set explicitly or read
  lazily from a callback at snapshot time (queue depth, live peers).
  Callback gauges cost nothing between snapshots, which is how the
  simulator exposes its queue depth without touching the event loop's
  hot path;
- :class:`StreamingHistogram` — quantile sketch over log-spaced
  buckets: p50/p95/p99 with bounded relative error and O(1) memory,
  never storing individual samples.

Existing stats objects (``net/stats.py``, the cluster's aggregate zab
counters) plug in as *providers*: a provider is a named zero-argument
callable returning a plain dict, merged into
:meth:`MetricsRegistry.snapshot` under its name.  This keeps the
registry authoritative for reports without forcing every subsystem to
rewrite its internal accounting.
"""

import math


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up: %r" % amount)
        self.value += amount

    def __repr__(self):
        return "Counter(%d)" % self.value


class Gauge:
    """An instantaneous value: set directly, or computed at read time."""

    __slots__ = ("_value", "_fn")

    def __init__(self, fn=None):
        self._value = 0
        self._fn = fn

    def set(self, value):
        if self._fn is not None:
            raise ValueError("cannot set a callback gauge")
        self._value = value

    def get(self):
        return self._fn() if self._fn is not None else self._value

    def __repr__(self):
        return "Gauge(%r)" % (self.get(),)


class StreamingHistogram:
    """Quantile sketch over geometrically spaced buckets.

    Values are assigned to bucket ``ceil(log(value/floor)/log(growth))``;
    with the default ``growth=1.04`` every estimate carries at most ~2%
    relative error while a twelve-decade range needs only ~700 possible
    buckets (allocated sparsely).  Values at or below *floor* share
    bucket zero — pick a floor below the smallest latency you care to
    resolve.
    """

    __slots__ = ("floor", "_log_growth", "_buckets", "count", "total",
                 "min_seen", "max_seen")

    def __init__(self, floor=1e-7, growth=1.04):
        if floor <= 0 or growth <= 1.0:
            raise ValueError("floor must be > 0 and growth > 1")
        self.floor = floor
        self._log_growth = math.log(growth)
        self._buckets = {}
        self.count = 0
        self.total = 0.0
        self.min_seen = None
        self.max_seen = None

    def observe(self, value):
        """Record one sample (negative values are clamped to the floor)."""
        if value <= self.floor:
            index = 0
        else:
            index = int(math.ceil(
                math.log(value / self.floor) / self._log_growth
            ))
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.min_seen is None or value < self.min_seen:
            self.min_seen = value
        if self.max_seen is None or value > self.max_seen:
            self.max_seen = value

    def mean(self):
        if not self.count:
            raise ValueError("no samples observed")
        return self.total / self.count

    def quantile(self, fraction):
        """Estimate the *fraction*-quantile (0..1) from the sketch."""
        if not self.count:
            raise ValueError("no samples observed")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        target = fraction * (self.count - 1) + 1
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                estimate = self._bucket_mid(index)
                # The sketch cannot leave the observed value range.
                estimate = max(estimate, self.min_seen)
                return min(estimate, self.max_seen)
        return self.max_seen

    def merge(self, other):
        """Fold *other*'s samples into this sketch (same geometry only).

        Merging is exact at the bucket level — the combined sketch is
        identical to one that observed both sample streams directly —
        which is what lets per-follower or per-shard histograms roll up
        into a cluster-wide one without re-observing anything.
        """
        if (
            other.floor != self.floor
            or other._log_growth != self._log_growth
        ):
            raise ValueError(
                "cannot merge histograms with different floor/growth"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        if other.min_seen is not None and (
            self.min_seen is None or other.min_seen < self.min_seen
        ):
            self.min_seen = other.min_seen
        if other.max_seen is not None and (
            self.max_seen is None or other.max_seen > self.max_seen
        ):
            self.max_seen = other.max_seen
        return self

    def _bucket_mid(self, index):
        if index == 0:
            return self.floor
        upper = self.floor * math.exp(index * self._log_growth)
        lower = self.floor * math.exp((index - 1) * self._log_growth)
        return math.sqrt(lower * upper)  # geometric midpoint

    def snapshot(self):
        """Plain-dict summary (the shape bench reports embed)."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "min": self.min_seen,
            "max": self.max_seen,
        }

    def __repr__(self):
        return "StreamingHistogram(n=%d, buckets=%d)" % (
            self.count, len(self._buckets)
        )


class MetricsRegistry:
    """Named counters, gauges, histograms, and pluggable providers."""

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._providers = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------

    def counter(self, name):
        try:
            return self._counters[name]
        except KeyError:
            counter = self._counters[name] = Counter()
            return counter

    def gauge(self, name, fn=None):
        try:
            gauge = self._gauges[name]
        except KeyError:
            gauge = self._gauges[name] = Gauge(fn)
        return gauge

    def histogram(self, name, floor=1e-7, growth=1.04):
        try:
            return self._histograms[name]
        except KeyError:
            histogram = self._histograms[name] = StreamingHistogram(
                floor=floor, growth=growth
            )
            return histogram

    def register_provider(self, name, fn):
        """Merge ``fn()`` (a plain dict) into snapshots under *name*."""
        self._providers[name] = fn

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def snapshot(self):
        """One plain dict of everything, safe to embed in reports.

        Every level is emitted in sorted key order — including the
        dicts returned by providers, recursively — so two snapshots of
        identical state serialise to identical JSON and diff cleanly
        (health.json and bench artifacts rely on this).
        """
        data = {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.get()
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }
        for name, provider in sorted(self._providers.items()):
            data[name] = _deep_sorted(provider())
        return data


def _deep_sorted(value):
    """Copy *value* with every nested dict rebuilt in sorted key order.

    Mixed-type keys (e.g. ints and strings) fall back to sorting by
    ``repr`` rather than failing — the order only has to be stable.
    """
    if isinstance(value, dict):
        try:
            keys = sorted(value)
        except TypeError:
            keys = sorted(value, key=repr)
        return {key: _deep_sorted(value[key]) for key in keys}
    if isinstance(value, (list, tuple)):
        return [_deep_sorted(item) for item in value]
    return value
