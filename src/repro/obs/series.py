"""Windowed per-node time-series over virtual time.

A :class:`TimeSeries` is a fixed-capacity ring buffer of ``(t, value)``
samples — the raw material of the health layer.  A
:class:`SeriesBank` keys many of them by ``(name, node)`` so per-node
streams (commit rate, ACK lag, fsync wait) and cluster-level streams
(commit rate, commit p99, leader presence) live side by side and
snapshot into one deterministic dict.

Everything here is driven by *virtual* time: samples come from trace
events, never from the wall clock.  Two runs of the same seed
therefore produce bit-identical series, which is what lets CI assert
that ``health.json`` does not drift.
"""

from repro.common.errors import ConfigError


def nearest_rank(values, fraction):
    """Nearest-rank *fraction*-percentile (0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[int(round(fraction * (len(ordered) - 1)))]


class TimeSeries:
    """A bounded, append-only sequence of ``(t, value)`` samples.

    Old samples fall off the front once *capacity* is reached (a ring
    buffer), so a long soak holds a sliding window of recent history in
    O(capacity) memory.  ``total_added`` keeps counting past evictions.
    """

    __slots__ = ("name", "capacity", "_samples", "_start", "total_added")

    def __init__(self, name, capacity=1024):
        if capacity < 1:
            raise ConfigError("capacity must be >= 1: %r" % (capacity,))
        self.name = name
        self.capacity = capacity
        self._samples = []    # ring storage, wraps at capacity
        self._start = 0       # index of the oldest sample
        self.total_added = 0

    def add(self, t, value):
        """Append one sample (timestamps must not go backwards)."""
        last = self.latest()
        if last is not None and t < last[0]:
            raise ConfigError(
                "sample time went backwards: %r < %r" % (t, last[0])
            )
        if len(self._samples) < self.capacity:
            self._samples.append((t, value))
        else:
            self._samples[self._start] = (t, value)
            self._start = (self._start + 1) % self.capacity
        self.total_added += 1

    def __len__(self):
        return len(self._samples)

    def items(self):
        """Retained samples as ``[(t, value)]``, oldest first."""
        if self._start == 0:
            return list(self._samples)
        return self._samples[self._start:] + self._samples[:self._start]

    def times(self):
        return [t for t, _value in self.items()]

    def values(self):
        return [value for _t, value in self.items()]

    def latest(self):
        """The newest ``(t, value)``, or None when empty."""
        if not self._samples:
            return None
        return self._samples[self._start - 1]

    def window(self, t_lo, t_hi):
        """Retained samples with ``t_lo <= t < t_hi``, oldest first."""
        return [
            (t, value) for t, value in self.items() if t_lo <= t < t_hi
        ]

    def mean(self):
        if not self._samples:
            raise ValueError("no samples")
        return sum(self.values()) / len(self._samples)

    def percentile(self, fraction):
        """Exact *fraction*-percentile (0..1) over retained samples."""
        if not self._samples:
            raise ValueError("no samples")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        return nearest_rank(self.values(), fraction)

    def summary(self):
        """JSON-safe digest (count/mean/min/max/last, no raw dump)."""
        if not self._samples:
            return {"count": 0, "total": self.total_added}
        values = self.values()
        return {
            "count": len(values),
            "total": self.total_added,
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
            "last": values[-1],
            "last_t": self.latest()[0],
        }

    def __repr__(self):
        return "TimeSeries(%r, n=%d/%d)" % (
            self.name, len(self._samples), self.capacity
        )


class SeriesBank:
    """Get-or-create registry of :class:`TimeSeries` keyed by name+node.

    ``node=None`` means a cluster-level series.  The snapshot emits
    names and nodes in sorted order so two identical runs serialise to
    byte-identical JSON.
    """

    def __init__(self, capacity=1024):
        self.capacity = capacity
        self._series = {}   # (name, node) -> TimeSeries

    def series(self, name, node=None):
        key = (name, node)
        try:
            return self._series[key]
        except KeyError:
            label = name if node is None else "%s[%s]" % (name, node)
            series = self._series[key] = TimeSeries(
                label, capacity=self.capacity
            )
            return series

    def get(self, name, node=None):
        """The existing series for ``(name, node)``, or None."""
        return self._series.get((name, node))

    def node_series(self, name):
        """``{node: TimeSeries}`` for every node-scoped *name* stream."""
        return {
            node: series
            for (series_name, node), series in self._series.items()
            if series_name == name and node is not None
        }

    def names(self):
        return sorted({name for name, _node in self._series})

    def nodes(self):
        """Every node id that owns at least one series, sorted."""
        return sorted({
            node for _name, node in self._series if node is not None
        })

    def snapshot(self):
        """Deterministic nested dict: ``{name: {node-or-"cluster": digest}}``.

        Node keys are stringified (JSON object keys are strings anyway)
        and emitted in sorted order alongside sorted series names.
        """
        data = {}
        for (name, node), series in sorted(
            self._series.items(),
            key=lambda item: (item[0][0], str(item[0][1])),
        ):
            bucket = data.setdefault(name, {})
            key = "cluster" if node is None else str(node)
            bucket[key] = series.summary()
        return data
