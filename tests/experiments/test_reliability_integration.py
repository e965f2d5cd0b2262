"""End-to-end tests for the reliability subsystem under the scenario runner.

The PR's acceptance criteria live here:

* ``--reliability off`` leaves run metrics bit-identical to the
  reliability-free build (compared field-for-field on the wire dict);
* the realistic ``mlc-20nm`` profile is quiescent over a short run --
  same perf numbers, only the fast-read counter moves;
* under accelerated retention (``mlc-20nm-accel``) a GC-heavy run ends
  with **zero** UECCs when the scrubber runs and **at least one** when
  it is disabled -- the scrubber demonstrably prevents data loss;
* the lifetime report projects years-to-ECC-cliff per policy;
* an FTL adopted by a host (warm start, power-on recovery) stamps
  retention on the simulator's clock, the one it is aged against.
"""

import dataclasses

import pytest

from repro.analytic.warmstart import synthesize_steady_state
from repro.core.policies import JitGcPolicy
from repro.experiments import (
    POLICY_FACTORIES,
    ScenarioSpec,
    gc_heavy_spec,
    run_lifetime_report,
    run_scenario,
)
from repro.host import HostSystem
from repro.metrics.collector import RunMetrics
from repro.nand.reliability import RELIABILITY_PROFILES
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig

#: RunMetrics fields introduced by the reliability subsystem: the only
#: ones allowed to differ between an off run and a quiescent armed run.
RELIABILITY_FIELDS = {
    "ecc_fast_reads",
    "ecc_retry_reads",
    "ecc_soft_decodes",
    "uecc_count",
    "ecc_retry_histogram",
    "scrub_blocks_refreshed",
    "scrub_pages_migrated",
}


def small_spec(**kwargs) -> ScenarioSpec:
    return gc_heavy_spec(
        blocks=64, pages_per_block=32, warmup_s=1, measure_s=2, seed=7, **kwargs
    )


# ----------------------------------------------------------------------
# Spec plumbing
# ----------------------------------------------------------------------
def test_spec_key_untouched_without_reliability():
    spec = small_spec()
    assert spec.reliability is None
    assert spec.reliability_tag() == "off"
    assert "/rel-" not in spec.key()


def test_spec_key_gains_reliability_suffix():
    spec = small_spec(reliability="mlc-20nm")
    assert spec.reliability_tag() == "mlc-20nm"
    assert spec.key().endswith("/rel-mlc-20nm")


def test_spec_tag_for_profile_instance():
    profile = RELIABILITY_PROFILES["mlc-20nm-accel"]
    spec = small_spec(reliability=profile)
    assert spec.reliability_tag() == "mlc-20nm-accel"


def test_trace_header_carries_reliability_tag():
    assert small_spec(reliability="mlc-20nm").trace_header()["reliability"] == "mlc-20nm"
    assert small_spec().trace_header()["reliability"] == "off"


# ----------------------------------------------------------------------
# Off-equivalence
# ----------------------------------------------------------------------
def test_quiescent_profile_leaves_perf_metrics_identical():
    """mlc-20nm over a short run: same numbers, only bookkeeping moves.

    The realistic profile's thresholds sit months of retention away from
    a seconds-long simulation, so the ladder never escalates, no latency
    is added and no RNG stream is consumed: every wire field outside the
    new reliability counters must match the reliability-off run exactly.
    """
    off = run_scenario(small_spec()).to_wire()
    armed = run_scenario(small_spec(reliability="mlc-20nm")).to_wire()
    assert set(off) == set(armed)
    for key in set(off) - RELIABILITY_FIELDS:
        assert off[key] == armed[key], f"field {key} diverged"
    # Off runs carry zeroed reliability counters ...
    assert off["ecc_fast_reads"] == 0
    assert off["uecc_count"] == 0
    assert off["ecc_retry_histogram"] == {}
    # ... the armed-but-quiescent run counts fast reads and nothing else.
    assert armed["ecc_fast_reads"] > 0
    assert armed["ecc_retry_reads"] == 0
    assert armed["uecc_count"] == 0
    assert armed["scrub_blocks_refreshed"] == 0


def test_off_runs_are_reproducible():
    assert (
        run_scenario(small_spec()).to_wire() == run_scenario(small_spec()).to_wire()
    )


# ----------------------------------------------------------------------
# Acceptance: the scrubber prevents the UECCs it exists to prevent
# ----------------------------------------------------------------------
def test_scrubber_prevents_uecc_under_accelerated_retention():
    accel = RELIABILITY_PROFILES["mlc-20nm-accel"]
    with_scrub = run_scenario(gc_heavy_spec(measure_s=30, reliability=accel))
    without = run_scenario(
        gc_heavy_spec(measure_s=30, reliability=dataclasses.replace(accel, scrub=False))
    )
    # Scrubber off: un-refreshed data decays past the ladder -- data lost.
    assert without.uecc_count > 0
    assert without.scrub_blocks_refreshed == 0
    # Scrubber on: endangered blocks relocate before the cliff.
    assert with_scrub.uecc_count == 0
    assert with_scrub.scrub_blocks_refreshed > 0
    assert with_scrub.scrub_pages_migrated > 0
    # The ladder was genuinely exercised, not bypassed.
    assert with_scrub.ecc_retry_reads > 0
    assert with_scrub.ecc_retry_histogram


# ----------------------------------------------------------------------
# Wire round-trip for the new metrics
# ----------------------------------------------------------------------
def _metrics(**kwargs) -> RunMetrics:
    base = dict(
        policy="JIT-GC",
        workload="synthetic",
        duration_ns=1,
        iops=0.0,
        waf=1.0,
        host_pages_written=0,
        gc_pages_migrated=0,
        fgc_invocations=0,
        fgc_time_ns=0,
        bgc_blocks=0,
        erases=0,
    )
    base.update(kwargs)
    return RunMetrics(**base)


def test_run_metrics_histogram_survives_wire_round_trip():
    metrics = _metrics(
        uecc_count=2,
        ecc_retry_reads=7,
        ecc_retry_histogram={"1": 4, "3": 3},
        scrub_blocks_refreshed=5,
    )
    restored = RunMetrics.from_wire(metrics.to_wire())
    assert restored.ecc_retry_histogram == {"1": 4, "3": 3}
    assert restored.uecc_count == 2
    assert restored.scrub_blocks_refreshed == 5


def test_run_metrics_from_wire_tolerates_missing_histogram():
    wire = _metrics().to_wire()
    del wire["ecc_retry_histogram"]
    assert RunMetrics.from_wire(wire).ecc_retry_histogram == {}


# ----------------------------------------------------------------------
# Lifetime report
# ----------------------------------------------------------------------
def test_lifetime_report_rejects_off_profile():
    with pytest.raises(ValueError, match="no ECC cliff"):
        run_lifetime_report(spec=small_spec(), reliability_profile="off")


def test_lifetime_report_rejects_bad_write_rate():
    with pytest.raises(ValueError, match="drive_writes_per_day"):
        run_lifetime_report(spec=small_spec(), drive_writes_per_day=0.0)


def test_lifetime_report_projects_policies():
    policies = {
        "JIT-GC": POLICY_FACTORIES["JIT-GC"],
        "A-BGC": POLICY_FACTORIES["A-BGC"],
    }
    report = run_lifetime_report(spec=small_spec(), policies=policies)
    assert set(report.projections) == {"JIT-GC", "A-BGC"}
    for name, projection in report.projections.items():
        assert projection.max_pe_cycles > 0
        assert projection.years > 0
        # years inversely proportional to measured WAF, shared endurance.
        assert projection.waf == max(1.0, report.results[name].waf)
    best = report.best_policy()
    assert report.projections[best].years == max(
        p.years for p in report.projections.values()
    )
    table = report.format()
    assert "Lifetime projection" in table
    assert "JIT-GC" in table and "A-BGC" in table


# ----------------------------------------------------------------------
# One clock for retention stamping and ageing
# ----------------------------------------------------------------------
def _warm_started(config, policy):
    ftl, _ = synthesize_steady_state(
        config,
        seed=3,
        working_set_pages=config.space_model().user_pages // 2,
        policy=policy,
    )
    return HostSystem(config, policy, ftl=ftl, seed=3)


def _recovered(config, policy):
    live = config.build_ftl(seed=3)
    for lpn in range(live.space.user_pages // 2):
        live.host_write_page(lpn)
    ftl, _ = config.recover_from(live.nand.capture_durable_state(), seed=3)
    return HostSystem(config, policy, ftl=ftl, seed=3, start_time_ns=SECOND)


@pytest.mark.parametrize("build", [_warm_started, _recovered])
def test_adopted_ftl_stamps_retention_on_the_simulator_clock(build):
    """An FTL built before its simulator (analytic warm start, power-on
    recovery) joins the simulator's clock for stamping as well as for
    ageing: a page written at sim time t is stamped t and, read back at
    once, takes the ladder's fast path even under accelerated retention."""
    config = SsdConfig.small(
        blocks=64, pages_per_block=16, mapping_mode="dftl", reliability="mlc-20nm-accel"
    )
    host = build(config, JitGcPolicy())
    host.run_for(2 * SECOND)
    ftl, now = host.ftl, host.sim.now
    ftl.host_write_page(5)
    block = ftl.page_map.block_of(ftl.page_map.lookup(5))
    assert int(ftl.nand.last_program_ns[block]) == now
    before = dataclasses.replace(ftl.stats)
    ftl.host_read_page(5)
    assert ftl.stats.ecc_fast_reads == before.ecc_fast_reads + 1
    assert ftl.stats.ecc_retry_reads == before.ecc_retry_reads
