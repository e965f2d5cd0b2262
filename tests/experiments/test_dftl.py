"""End-to-end tests for the flash-resident (DFTL) mapping mode: crash
consistency of the translation tier, warm-start composition, and the
metrics/runner plumbing."""

import numpy as np

from repro.analytic.warmstart import synthesize_steady_state
from repro.experiments.crashsweep import gc_heavy_spec, run_crash_sweep
from repro.experiments.runner import run_scenario
from repro.ftl.mapping import UNMAPPED, CachedPageMap
from repro.ssd.config import SsdConfig


def dftl_spec(**kwargs):
    defaults = dict(
        blocks=96, pages_per_block=16, measure_s=4, seed=9, mapping="dftl"
    )
    defaults.update(kwargs)
    return gc_heavy_spec(**defaults)


# ----------------------------------------------------------------------
# Crash consistency: GTD + CMT + three torn frontiers
# ----------------------------------------------------------------------
def test_dftl_crash_sweep_recovers_every_point():
    result = run_crash_sweep(dftl_spec(), points=8, stride_events=192)
    assert result.ok()
    assert result.passed == len(result.points) == 8


def test_dftl_crash_sweep_with_checkpoints():
    result = run_crash_sweep(
        dftl_spec(checkpoint_interval=2048), points=6, stride_events=192
    )
    assert result.ok()


# ----------------------------------------------------------------------
# Scenario runner plumbing
# ----------------------------------------------------------------------
def test_runner_reports_translation_tier_metrics():
    metrics = run_scenario(dftl_spec(measure_s=3))
    assert metrics.mapping_mode == "dftl"
    assert metrics.cmt_hits + metrics.cmt_misses > 0
    assert metrics.trans_pages_written > 0
    # Translation programs are priced into WAF without dominating the
    # write stream (0.147 on this spec).
    assert 0.0 < metrics.translation_waf_share <= 0.5
    assert 0.0 <= metrics.cmt_hit_rate() <= 1.0


def test_dram_runner_metrics_stay_clean():
    metrics = run_scenario(dftl_spec(mapping="dram", measure_s=3))
    assert metrics.mapping_mode == "dram"
    assert metrics.trans_pages_written == 0
    assert metrics.translation_waf_share == 0.0


def test_spec_key_distinguishes_mapping_modes():
    assert "map-dftl" in dftl_spec().key()
    assert "map-" not in dftl_spec(mapping="dram").key()


# ----------------------------------------------------------------------
# Analytic warm start composes with dftl
# ----------------------------------------------------------------------
def test_analytic_warmstart_lays_out_translation_tier():
    cfg = SsdConfig.small(blocks=96, pages_per_block=16, mapping_mode="dftl")
    working_set = cfg.space_model().user_pages * 3 // 4
    ftl, prediction = synthesize_steady_state(
        cfg, seed=11, working_set_pages=working_set
    )
    assert isinstance(ftl.page_map, CachedPageMap)
    gtd = ftl.page_map.gtd_snapshot()
    spanned = -(-working_set // ftl.page_map.entries_per_tpage)
    assert int((gtd != UNMAPPED).sum()) == spanned
    ftl.invariant_check()

    # The synthesized image must be recoverable by construction: a
    # power cut right after synthesis rebuilds the same L2P *and* GTD.
    recovered, report = cfg.recover_from(
        ftl.nand.capture_durable_state(), seed=11
    )
    assert np.array_equal(recovered.page_map.l2p_snapshot(),
                          ftl.page_map.l2p_snapshot())
    assert np.array_equal(recovered.page_map.gtd_snapshot(), gtd)
    assert report.trans_pages_mapped == spanned


def test_analytic_warmstart_dftl_scenario_runs():
    metrics = run_scenario(dftl_spec(warm_start="analytic", measure_s=3))
    assert metrics.mapping_mode == "dftl"
    assert metrics.waf >= 1.0
