"""Tests for tail-latency attribution (repro.obs.attribution)."""

from repro.obs.attribution import (
    CAUSE_BGC_OVERLAP,
    CAUSE_FAULT_RETRY,
    CAUSE_FGC_STALL,
    CAUSE_FLUSHER,
    CAUSE_NONE,
    CAUSE_QUEUEING,
    CAUSE_RECOVERY,
    CAUSES,
    DISABLED_OPLOG,
    OpLog,
    PointIndex,
    SpanIndex,
    attribute_tail,
    causes_from_wire,
)
from repro.obs.audit import (
    BackpressureRecord,
    DecisionAuditLog,
    FaultRecord,
    GcSpanRecord,
    RecoveryRecord,
)


# ----------------------------------------------------------------------
# OpLog
# ----------------------------------------------------------------------
def test_oplog_records_and_bounds():
    log = OpLog(limit=2)
    log.record("write", 0, 10, 1)
    log.record("read", 5, 25, 0)
    log.record("write", 6, 30, 2)
    assert len(log) == 2
    assert log.dropped == 1
    assert log.kinds == ["write", "read"]
    assert log.queue_depths == [1, 0]


def test_disabled_oplog_is_shared_noop():
    assert DISABLED_OPLOG.enabled is False
    assert len(DISABLED_OPLOG) == 0


# ----------------------------------------------------------------------
# Index structures
# ----------------------------------------------------------------------
def test_span_index_merges_and_queries():
    index = SpanIndex([(10, 20), (15, 30), (50, 60)])
    assert len(index) == 2  # first two merged
    assert index.overlaps(0, 10)       # touches start
    assert index.overlaps(25, 40)
    assert not index.overlaps(31, 49)
    assert index.overlaps(55, 55)
    assert not index.overlaps(61, 100)
    assert not SpanIndex([]).overlaps(0, 10**9)


def test_point_index():
    index = PointIndex([5, 100])
    assert index.any_in(0, 5)
    assert index.any_in(99, 101)
    assert not index.any_in(6, 99)
    assert not PointIndex([]).any_in(0, 10**9)


# ----------------------------------------------------------------------
# attribute_tail
# ----------------------------------------------------------------------
def _audit_with_timeline() -> DecisionAuditLog:
    audit = DecisionAuditLog()
    audit.record(GcSpanRecord(t_ns=1000, dur_ns=500, event="fgc.stall"))
    audit.record(GcSpanRecord(t_ns=5000, dur_ns=500, event="bgc.block"))
    audit.record(BackpressureRecord(t_ns=9000, dur_ns=400, writers=2))
    audit.record(
        FaultRecord(t_ns=12_000, kind="read", block=1, page=2, resolution="read-retry")
    )
    audit.record(
        RecoveryRecord(
            t_ns=15_000,
            duration_ns=1000,
            pages_scanned=4,
            torn_pages=0,
            stale_pages=0,
            mapped_lpns=4,
            free_blocks=1,
            closed_blocks=1,
            retired_blocks=0,
        )
    )
    return audit


def test_attribution_priority_and_accounting():
    audit = _audit_with_timeline()
    log = OpLog()
    # One op per cause; latencies all equal so threshold catches all.
    log.record("write", 900, 1200, 0)      # overlaps the FGC stall
    log.record("write", 4900, 5200, 0)     # overlaps the BGC span
    log.record("write", 8900, 9200, 0)     # inside backpressure
    log.record("read", 11_900, 12_200, 0)  # fault instant inside window
    log.record("write", 14_900, 15_200, 0) # recovery window
    log.record("write", 20_000, 20_300, 3) # nothing overlaps, queued
    log.record("write", 30_000, 30_300, 0) # nothing at all

    report = attribute_tail(log, audit, threshold_pct=0.0)
    assert report.total_ops == 7
    assert report.slow_ops == 7
    assert report.accounted() == report.slow_ops
    assert report.count(CAUSE_FGC_STALL) == 1
    assert report.count(CAUSE_BGC_OVERLAP) == 1
    assert report.count(CAUSE_FLUSHER) == 1
    assert report.count(CAUSE_FAULT_RETRY) == 1
    assert report.count(CAUSE_RECOVERY) == 1
    assert report.count(CAUSE_QUEUEING) == 1
    assert report.count(CAUSE_NONE) == 1
    assert report.total_ns(CAUSE_FGC_STALL) == 300


def test_fgc_takes_priority_over_everything():
    audit = _audit_with_timeline()
    log = OpLog()
    # Window spans the FGC stall AND the BGC span AND backpressure.
    log.record("write", 900, 9500, 4)
    report = attribute_tail(log, audit, threshold_pct=0.0)
    assert report.count(CAUSE_FGC_STALL) == 1
    assert report.accounted() == 1


def test_threshold_uses_nearest_rank_percentile():
    log = OpLog()
    for index in range(100):
        log.record("write", index * 1000, index * 1000 + index + 1, 0)
    report = attribute_tail(log, DecisionAuditLog(), threshold_pct=99.0)
    # Latencies are 1..100; nearest-rank p99 of 100 samples is 99.
    assert report.threshold_ns == 99
    assert report.slow_ops == 2  # latencies 99 and 100
    assert report.accounted() == 2


def test_explicit_threshold_override():
    log = OpLog()
    log.record("write", 0, 10, 0)
    log.record("write", 0, 1000, 0)
    report = attribute_tail(log, DecisionAuditLog(), threshold_ns=500)
    assert report.slow_ops == 1
    assert report.threshold_ns == 500


def test_empty_and_disabled_oplog():
    report = attribute_tail(OpLog(), DecisionAuditLog())
    assert report.total_ops == 0
    assert report.slow_ops == 0
    assert report.accounted() == 0
    assert set(report.causes) == set(CAUSES)
    report = attribute_tail(DISABLED_OPLOG, DecisionAuditLog())
    assert report.total_ops == 0


def test_disabled_audit_yields_queueing_or_none():
    from repro.obs.audit import DISABLED_AUDIT

    log = OpLog()
    log.record("write", 0, 100, 1)
    log.record("write", 0, 100, 0)
    report = attribute_tail(log, DISABLED_AUDIT, threshold_pct=0.0)
    assert report.count(CAUSE_QUEUEING) == 1
    assert report.count(CAUSE_NONE) == 1


def test_wire_roundtrip():
    log = OpLog()
    log.record("write", 0, 100, 1)
    report = attribute_tail(log, DecisionAuditLog(), threshold_pct=0.0)
    wire = report.to_wire()
    assert causes_from_wire(wire) == report.causes
    assert causes_from_wire(None) == {}


def test_audit_span_queries():
    audit = _audit_with_timeline()
    assert len(audit.fgc_spans()) == 1
    assert len(audit.bgc_spans()) == 1
    assert len(audit.backpressure_spans) == 1
    # Disabled audit drops span records like every other record type.
    from repro.obs.audit import DISABLED_AUDIT

    DISABLED_AUDIT.record(GcSpanRecord(t_ns=0, dur_ns=1, event="fgc.stall"))
    assert DISABLED_AUDIT.gc_spans == []


def test_mapping_fault_cause_attributes_cmt_misses():
    from repro.obs.attribution import CAUSE_MAPPING_FAULT
    from repro.obs.audit import MappingFaultRecord

    audit = DecisionAuditLog()
    audit.record(MappingFaultRecord(t_ns=2000, dur_ns=300, tvpn=0, kind="miss"))
    audit.record(
        MappingFaultRecord(t_ns=8000, dur_ns=500, tvpn=0, kind="writeback", pages=1)
    )
    log = OpLog()
    log.record("write", 1900, 2100, 0)   # overlaps the miss read
    log.record("write", 8100, 8600, 0)   # inside the eviction writeback
    log.record("write", 5000, 5200, 0)   # overlaps nothing
    report = attribute_tail(log, audit, threshold_pct=0.0)
    assert report.count(CAUSE_MAPPING_FAULT) == 2
    assert report.count(CAUSE_NONE) == 1
    assert report.accounted() == 3
    assert CAUSE_MAPPING_FAULT in CAUSES


def test_fault_retry_outranks_mapping_fault():
    from repro.obs.attribution import CAUSE_MAPPING_FAULT
    from repro.obs.audit import MappingFaultRecord

    audit = DecisionAuditLog()
    audit.record(
        FaultRecord(t_ns=2000, kind="read", block=0, page=0, resolution="read-retry")
    )
    audit.record(MappingFaultRecord(t_ns=2000, dur_ns=300, tvpn=0, kind="miss"))
    log = OpLog()
    log.record("read", 1900, 2400, 0)  # overlaps both
    report = attribute_tail(log, audit, threshold_pct=0.0)
    assert report.count(CAUSE_FAULT_RETRY) == 1
    assert report.count(CAUSE_MAPPING_FAULT) == 0
