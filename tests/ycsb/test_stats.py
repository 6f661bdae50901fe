"""Latency statistics."""

import pytest

from repro.ycsb.stats import LatencyStats


def filled(values):
    stats = LatencyStats()
    for v in values:
        stats.add(v)
    return stats


def test_empty_stats():
    stats = LatencyStats()
    assert stats.count == 0
    assert stats.mean == 0.0
    assert stats.p99 == 0.0


def test_mean():
    assert filled([1, 2, 3]).mean == pytest.approx(2.0)


def test_percentiles():
    stats = filled(range(1, 101))  # 1..100
    assert stats.percentile(50) == 50
    assert stats.p95 == 95
    assert stats.p99 == 99
    assert stats.percentile(100) == 100
    assert stats.percentile(0) == 1


def test_merge():
    a = filled([1, 2])
    b = filled([3, 4])
    a.merge(b)
    assert a.count == 4
    assert a.mean == pytest.approx(2.5)


def test_add_after_percentile_resorts():
    stats = filled([10])
    assert stats.percentile(50) == 10
    stats.add(1)
    assert stats.percentile(50) == 1


def test_percentile_zero_is_minimum():
    """p=0 must return the smallest sample, not an off-by-one rank."""
    stats = filled([42, 7, 300])
    assert stats.percentile(0) == 7
    assert stats.percentile(-5) == 7  # clamped below zero too
    stats.add(3)
    assert stats.percentile(0) == 3


def test_backing_histogram_exposed():
    """LatencyStats rides on the telemetry histogram type."""
    from repro.telemetry.metrics import Histogram

    stats = filled([5, 500])
    assert isinstance(stats.histogram, Histogram)
    assert stats.histogram.count() == 2
    assert stats.histogram.sum() == pytest.approx(505)
    snap = stats.histogram.to_snapshot()
    assert snap["series"][0]["count"] == 2
