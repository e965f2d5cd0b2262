"""Tests for the EWMA bandwidth estimator."""

import pytest

from repro.sim.simtime import SECOND
from repro.ssd.bandwidth import BandwidthEstimator


def test_prior_used_before_samples():
    est = BandwidthEstimator(prior_bytes_per_sec=1000.0)
    assert est.bytes_per_second == 1000.0


def test_converges_to_observed_rate():
    est = BandwidthEstimator(prior_bytes_per_sec=1000.0, alpha=0.5)
    for _ in range(20):
        est.observe(2000, SECOND)  # 2000 B/s
    assert est.bytes_per_second == pytest.approx(2000.0, rel=0.01)


def test_short_samples_accumulate():
    est = BandwidthEstimator(prior_bytes_per_sec=1000.0, min_sample_ns=SECOND)
    est.observe(10, SECOND // 10)
    assert est.samples == 0  # folded, not yet applied
    for _ in range(9):
        est.observe(10, SECOND // 10)
    assert est.samples == 1
    assert est.bytes_per_second != 1000.0


def test_validation():
    with pytest.raises(ValueError):
        BandwidthEstimator(prior_bytes_per_sec=0)
    with pytest.raises(ValueError):
        BandwidthEstimator(prior_bytes_per_sec=1, alpha=0)
    est = BandwidthEstimator(prior_bytes_per_sec=1)
    with pytest.raises(ValueError):
        est.observe(-1, 10)
