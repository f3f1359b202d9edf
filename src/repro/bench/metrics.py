"""The bucketed-rate counter behind throughput-over-time figures.

(Latency lives in :class:`repro.obs.metrics.StreamingHistogram`.)
"""


class Timeline:
    """Time-bucketed event counts — the throughput-over-time series."""

    def __init__(self, bucket=0.1):
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        self.bucket = bucket
        self._counts = {}

    def add(self, time, count=1):
        index = int(time / self.bucket)
        self._counts[index] = self._counts.get(index, 0) + count

    def series(self, start=None, end=None):
        """[(bucket_start_time, events_per_second)], gaps filled with 0."""
        if not self._counts:
            return []
        first = min(self._counts)
        last = max(self._counts)
        if start is not None:
            first = max(first, int(start / self.bucket))
        if end is not None:
            last = min(last, int(end / self.bucket))
        return [
            (index * self.bucket, self._counts.get(index, 0) / self.bucket)
            for index in range(first, last + 1)
        ]

    def total(self):
        return sum(self._counts.values())
