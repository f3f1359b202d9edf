"""Unit and property tests for the benchmark measurement primitives."""

import pytest

from repro.bench.metrics import Timeline


# --- Timeline ---------------------------------------------------------------

def test_timeline_buckets_and_rates():
    timeline = Timeline(bucket=0.5)
    for t in (0.1, 0.2, 0.6, 1.6):
        timeline.add(t)
    series = timeline.series()
    assert series == [
        (0.0, 4.0),   # 2 events / 0.5s
        (0.5, 2.0),
        (1.0, 0.0),   # gap filled with zero
        (1.5, 2.0),
    ]
    assert timeline.total() == 4


def test_timeline_window_filter():
    timeline = Timeline(bucket=1.0)
    for t in range(10):
        timeline.add(float(t))
    series = timeline.series(start=3.0, end=5.0)
    assert [t for t, _r in series] == [3.0, 4.0, 5.0]


def test_timeline_empty():
    assert Timeline().series() == []
    assert Timeline().total() == 0


def test_timeline_validation():
    with pytest.raises(ValueError):
        Timeline(bucket=0)
