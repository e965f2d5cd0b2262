"""Tests for the reservoir-sampled latency recorder (the HDR oracle)."""

import pytest

from tests.metrics.reservoir import LatencyRecorder


def test_exact_stats_small_population():
    rec = LatencyRecorder()
    for value in (10, 20, 30, 40):
        rec.record(value)
    assert rec.count == 4
    assert rec.mean() == pytest.approx(25.0)
    assert rec.max() == 40
    assert rec.percentile(0) == 10
    assert rec.percentile(100) == 40
    assert rec.percentile(50) in (20, 30)


def test_empty_recorder():
    rec = LatencyRecorder()
    assert rec.mean() == 0.0
    assert rec.percentile(99) == 0
    assert rec.max() == 0


def test_reservoir_bounds_memory():
    rec = LatencyRecorder(reservoir_size=100)
    for value in range(10_000):
        rec.record(value)
    assert rec.count == 10_000
    assert len(rec._samples) == 100
    # Percentiles remain sane estimates of the uniform distribution.
    assert 3000 < rec.percentile(50) < 7000


def test_mean_is_exact_despite_sampling():
    rec = LatencyRecorder(reservoir_size=10)
    for value in range(1000):
        rec.record(value)
    assert rec.mean() == pytest.approx(499.5)


def test_validation():
    with pytest.raises(ValueError):
        LatencyRecorder(reservoir_size=0)
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        rec.record(-1)
    with pytest.raises(ValueError):
        rec.percentile(101)


def test_reservoir_matches_nearest_rank_while_exact():
    from repro.metrics.hdr import nearest_rank

    rec = LatencyRecorder()
    values = [5, 1, 9, 3]
    for value in values:
        rec.record(value)
    ordered = sorted(values)
    for q in (0, 25, 50, 99, 100):
        assert rec.percentile(q) == ordered[nearest_rank(q, 4) - 1]
