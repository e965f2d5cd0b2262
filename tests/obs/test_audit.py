"""Tests for the decision-audit log, including the Sec 3.3 branch audit."""

import dataclasses
from collections import Counter

import pytest

from repro.core.policies import JitGcPolicy
from repro.faults.injector import FaultProfile
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector
from repro.obs import Observability, ObservabilityConfig
from repro.obs.audit import (
    BRANCH_DEFER,
    BRANCH_INVOKE,
    BRANCH_NO_BGC,
    DISABLED_AUDIT,
    DecisionAuditLog,
    FaultRecord,
    ManagerTickRecord,
    VictimRecord,
)
from repro.nand.reliability import RELIABILITY_PROFILES
from repro.obs.tracer import InMemorySink, Tracer
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.workloads import BENCHMARKS, Region


def _tick(branch, **overrides):
    fields = dict(
        t_ns=0, dbuf_bytes=0, ddir_bytes=0, creq_bytes=0, cfree_bytes=0,
        tw_ns=0, tidle_ns=0, tgc_ns=0, reclaim_bytes=0, guard_bytes=0,
        quota_pages=0, branch=branch, write_bw=1.0, gc_bw=1.0,
    )
    fields.update(overrides)
    return ManagerTickRecord(**fields)


def test_disabled_audit_records_nothing():
    assert DISABLED_AUDIT.enabled is False
    DISABLED_AUDIT.record(_tick(BRANCH_DEFER))
    DISABLED_AUDIT.record(
        VictimRecord(0, 1, 2, 2.0, 3, 0, background=True)
    )
    DISABLED_AUDIT.record(FaultRecord(0, "read", 1, 2, "read-retry"))
    assert DISABLED_AUDIT.total_records() == 0


def test_audit_log_caps_and_counts_drops():
    audit = DecisionAuditLog(limit=2)
    for i in range(5):
        audit.record(FaultRecord(i, "read", 0, 0, "read-retry"))
    assert len(audit.faults) == 2
    assert audit.dropped == 3


def test_ticks_filter_by_branch():
    audit = DecisionAuditLog()
    audit.record(_tick(BRANCH_NO_BGC))
    audit.record(_tick(BRANCH_DEFER))
    audit.record(_tick(BRANCH_DEFER))
    assert len(audit.ticks()) == 3
    assert len(audit.ticks(BRANCH_DEFER)) == 2
    assert audit.ticks(BRANCH_INVOKE) == []


def test_filtered_selections_query():
    audit = DecisionAuditLog()
    audit.record(VictimRecord(0, 1, 4, 4.0, 8, 0, background=True))
    audit.record(VictimRecord(1, 2, 4, 4.0, 8, 2, background=True))
    assert [v.block for v in audit.filtered_selections()] == [2]


@pytest.fixture(scope="module")
def jit_audit_run():
    """A short JIT-GC run tuned (tight tau_expire) to hit all branches."""
    config = SsdConfig.small(blocks=256, pages_per_block=64)
    policy = JitGcPolicy()
    obs = Observability.from_config(ObservabilityConfig(audit=True))
    host = HostSystem(
        config,
        policy,
        seed=42,
        flusher_period_ns=SECOND,
        tau_expire_ns=2 * SECOND,
        obs=obs,
    )
    working_set = int(host.user_pages * 0.5)
    host.prefill(working_set)
    metrics = MetricsCollector(host, workload_name="YCSB")
    workload = BENCHMARKS["YCSB"](host, metrics, Region(0, working_set))
    workload.start()
    host.run_for(10 * SECOND)
    return host, obs.audit


def test_jit_run_audits_every_manager_tick(jit_audit_run):
    host, audit = jit_audit_run
    # One audit record per flusher wake-up (the device never went
    # read-only in this scenario).
    assert len(audit.manager_ticks) == host.flusher.wakeups
    times = [t.t_ns for t in audit.manager_ticks]
    assert times == sorted(times)


def test_jit_run_hits_all_three_branches(jit_audit_run):
    _, audit = jit_audit_run
    branches = {t.branch for t in audit.manager_ticks}
    assert branches == {BRANCH_NO_BGC, BRANCH_DEFER, BRANCH_INVOKE}


def test_no_bgc_tick_has_funded_future(jit_audit_run):
    _, audit = jit_audit_run
    for tick in audit.ticks(BRANCH_NO_BGC):
        assert tick.cfree_bytes >= tick.creq_bytes
        assert tick.reclaim_bytes == 0
        assert tick.tw_ns == tick.tidle_ns == tick.tgc_ns == 0


def test_deferred_tick_has_idle_covering_gc(jit_audit_run):
    _, audit = jit_audit_run
    deferred = audit.ticks(BRANCH_DEFER)
    assert deferred
    for tick in deferred:
        assert tick.cfree_bytes < tick.creq_bytes
        assert tick.tidle_ns >= tick.tgc_ns
        assert tick.reclaim_bytes == 0


def test_invoked_tick_reclaim_matches_paper_rule(jit_audit_run):
    """Sec 3.3: Dreclaim = (Tgc - Tidle) * Bgc, capped at the shortfall."""
    _, audit = jit_audit_run
    invoked = audit.ticks(BRANCH_INVOKE)
    assert invoked
    for tick in invoked:
        assert tick.tidle_ns <= tick.tgc_ns
        expected = int((tick.tgc_ns - tick.tidle_ns) * tick.gc_bw / SECOND)
        expected = min(expected, tick.creq_bytes - tick.cfree_bytes)
        assert tick.reclaim_bytes == expected
        assert tick.reclaim_bytes > 0
        assert tick.quota_pages > 0


def test_jit_run_audits_victim_selections(jit_audit_run):
    host, audit = jit_audit_run
    assert len(audit.victim_selections) == host.ftl.stats.victim_selections
    for record in audit.victim_selections:
        assert record.valid_pages is not None
        assert 0 <= record.valid_pages <= host.config.geometry.pages_per_block
        assert record.candidates_considered > 0


def test_faulty_run_audits_recovery_paths():
    config = SsdConfig.small(blocks=256, pages_per_block=32, fault_profile="light")
    policy = JitGcPolicy()
    obs = Observability.from_config(ObservabilityConfig(audit=True))
    host = HostSystem(
        config,
        policy,
        seed=42,
        flusher_period_ns=SECOND,
        obs=obs,
    )
    working_set = int(host.user_pages * 0.5)
    host.prefill(working_set)
    metrics = MetricsCollector(host, workload_name="YCSB")
    workload = BENCHMARKS["YCSB"](host, metrics, Region(0, working_set))
    workload.start()
    host.run_for(10 * SECOND)

    faults = obs.audit.faults
    assert faults, "light profile should exercise at least one recovery"
    kinds = {f.kind for f in faults}
    assert kinds == {"read", "program"}
    resolutions = {f.resolution for f in faults}
    assert resolutions == {"read-retry", "block-retired"}
    for fault in faults:
        if fault.resolution == "read-retry":
            assert fault.retries >= 1
    assert not host.ftl.read_only


def test_ladder_armed_faulty_dftl_run_audits_every_media_resolution():
    """The media's fault notes under both the ECC ladder and an injector:
    every resolution has its audit record and its tracer ``fault.*``
    event, one for one.  Accelerated retention with the scrubber off ages
    the data through retry levels and the soft decoder during a busy
    phase; a long idle then leaves it beyond the ladder (UECC)."""
    config = SsdConfig.small(
        blocks=256,
        pages_per_block=16,
        mapping_mode="dftl",
        reliability=dataclasses.replace(
            RELIABILITY_PROFILES["mlc-20nm-accel"], scrub=False
        ),
        fault_profile=FaultProfile(
            erase_fail_prob=0.15,
            read_uncorrectable_prob=0.01,
            read_retry_success_prob=0.2,
        ),
    )
    sink = InMemorySink()
    obs = Observability(tracer=Tracer(sink), audit=DecisionAuditLog())
    host = HostSystem(config, JitGcPolicy(), seed=42, flusher_period_ns=SECOND, obs=obs)
    working_set = int(host.user_pages * 0.5)
    host.prefill(working_set)
    metrics = MetricsCollector(host, workload_name="YCSB")
    busy = BENCHMARKS["YCSB"](host, metrics, Region(0, working_set))
    busy.start()
    host.run_for(20 * SECOND)
    busy.stop()
    host.run_for(60 * SECOND)
    BENCHMARKS["YCSB"](host, metrics, Region(0, working_set)).start()
    host.run_for(2 * SECOND)

    audit = obs.audit
    assert audit.dropped == 0
    audited = Counter(
        (f.kind, f.block, f.page, f.resolution, f.retries) for f in audit.faults
    )
    fields = ("block", "page", "resolution", "retries")
    traced = Counter(
        (r["name"].removeprefix("fault."), *(r["args"][k] for k in fields))
        for r in sink.records
        if r["name"] in ("fault.read", "fault.program", "fault.erase")
    )
    assert audited == traced
    resolutions = Counter((f.kind, f.resolution) for f in audit.faults)
    for wanted in (
        ("read", "ecc-retry"),
        ("read", "ecc-soft-decode"),
        ("read", "uecc"),
        ("read", "data-lost"),
        ("erase", "block-retired"),
    ):
        assert resolutions[wanted] > 0, wanted
    stats = host.ftl.stats
    assert resolutions[("read", "uecc")] == stats.uecc_count
    assert resolutions[("read", "ecc-soft-decode")] == stats.ecc_soft_decodes
    assert (
        resolutions[("read", "ecc-retry")] + resolutions[("read", "ecc-soft-decode")]
        == stats.ecc_retry_reads
        == sum(host.ftl.media.ecc_retry_histogram.values())
    )
    assert not host.ftl.read_only
