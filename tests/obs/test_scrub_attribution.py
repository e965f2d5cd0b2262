"""Tests for the scrub-interference tail-latency cause.

Refresh-scrub relocations are background GC spans named ``scrub.block``
on their :class:`GcSpanRecord`; the attribution engine must classify a
slow op overlapping one as ``scrub-interference`` -- not fold it into
``bgc-overlap`` -- while preserving the priority ladder around it.
"""

from repro.obs.attribution import (
    CAUSE_BGC_OVERLAP,
    CAUSE_FGC_STALL,
    CAUSE_SCRUB,
    CAUSES,
    OpLog,
    attribute_tail,
)
from repro.obs.audit import DecisionAuditLog, GcSpanRecord


def _audit_with_scrub() -> DecisionAuditLog:
    audit = DecisionAuditLog()
    audit.record(GcSpanRecord(t_ns=1000, dur_ns=500, event="fgc.stall"))
    audit.record(GcSpanRecord(t_ns=5000, dur_ns=500, event="bgc.block"))
    audit.record(
        GcSpanRecord(t_ns=9000, dur_ns=500, event="scrub.block")
    )
    return audit


def test_scrub_cause_is_registered_between_bgc_and_flusher():
    assert CAUSE_SCRUB == "scrub-interference"
    assert CAUSE_SCRUB in CAUSES
    assert CAUSES.index(CAUSE_SCRUB) == CAUSES.index(CAUSE_BGC_OVERLAP) + 1


def test_scrub_span_classifies_separately_from_bgc():
    audit = _audit_with_scrub()
    log = OpLog()
    log.record("write", 4900, 5200, 0)  # overlaps the plain BGC span
    log.record("write", 8900, 9200, 0)  # overlaps the scrub relocation
    report = attribute_tail(log, audit, threshold_pct=0.0)
    assert report.count(CAUSE_BGC_OVERLAP) == 1
    assert report.count(CAUSE_SCRUB) == 1
    assert report.accounted() == report.slow_ops == 2
    assert report.total_ns(CAUSE_SCRUB) == 300


def test_fgc_still_outranks_scrub():
    audit = _audit_with_scrub()
    log = OpLog()
    # One op spanning the FGC stall, the BGC span AND the scrub span.
    log.record("write", 900, 9500, 2)
    report = attribute_tail(log, audit, threshold_pct=0.0)
    assert report.count(CAUSE_FGC_STALL) == 1
    assert report.count(CAUSE_SCRUB) == 0


def test_bgc_outranks_scrub_when_both_overlap():
    audit = _audit_with_scrub()
    log = OpLog()
    log.record("write", 4900, 9500, 0)  # spans both background intervals
    report = attribute_tail(log, audit, threshold_pct=0.0)
    assert report.count(CAUSE_BGC_OVERLAP) == 1
    assert report.count(CAUSE_SCRUB) == 0


def test_wear_level_span_classifies_as_bgc_overlap():
    """Wear-level moves are background work, but not a scrub."""
    audit = DecisionAuditLog()
    audit.record(GcSpanRecord(t_ns=5000, dur_ns=500, event="wear_level.block"))
    log = OpLog()
    log.record("write", 4900, 5200, 0)
    report = attribute_tail(log, audit, threshold_pct=0.0)
    assert report.count(CAUSE_BGC_OVERLAP) == 1
    assert report.count(CAUSE_SCRUB) == 0


def test_scrub_cause_round_trips_through_wire():
    audit = _audit_with_scrub()
    log = OpLog()
    log.record("write", 8900, 9200, 0)
    report = attribute_tail(log, audit, threshold_pct=0.0)
    wire = report.to_wire()
    assert wire[CAUSE_SCRUB] == [1, 300]
