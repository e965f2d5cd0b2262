"""Tests for FTL statistics: WAF, snapshots, deltas."""

import pytest

from repro.ftl.stats import FtlStats


def test_waf_is_one_before_gc():
    stats = FtlStats()
    assert stats.waf() == 1.0
    stats.host_pages_written = 100
    assert stats.waf() == 1.0


def test_waf_with_migrations():
    stats = FtlStats(host_pages_written=100, gc_pages_migrated=50)
    assert stats.waf() == pytest.approx(1.5)
    assert stats.total_pages_programmed() == 150


def test_sip_filtered_fraction():
    stats = FtlStats()
    assert stats.sip_filtered_fraction() == 0.0
    stats.victim_selections = 20
    stats.victims_filtered_by_sip = 5
    assert stats.sip_filtered_fraction() == pytest.approx(0.25)


def test_snapshot_is_independent_copy():
    stats = FtlStats(host_pages_written=10)
    snap = stats.snapshot()
    stats.host_pages_written = 99
    assert snap.host_pages_written == 10


def test_delta_since():
    stats = FtlStats(host_pages_written=10, gc_pages_migrated=2)
    snap = stats.snapshot()
    stats.host_pages_written += 30
    stats.gc_pages_migrated += 6
    delta = stats.delta_since(snap)
    assert delta.host_pages_written == 30
    assert delta.gc_pages_migrated == 6
    assert delta.waf() == pytest.approx(1.2)


def test_str_smoke():
    assert "WAF" in str(FtlStats(host_pages_written=1))
