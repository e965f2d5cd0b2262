"""Indexed hot paths must be bit-identical to the reference scans.

The incremental indexes (PERFORMANCE.md) are pure accelerations: the
page-cache expiry index, the predictor's interval histogram, the FTL's
valid-count and SIP-overlap indexes, and the parallel sweep executor
must all produce exactly the results of the original full-scan code.
These tests drive both implementations -- property-style on the data
structures, end-to-end on seed scenarios -- and assert equality of
everything observable: query results, RunMetrics, and the decision-audit
stream.
"""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.buffered_predictor import BufferedWritePredictor
from repro.experiments.fig2 import fig2_specs
from repro.experiments.runner import ScenarioSpec, _run_scenario_host, run_sweep
from repro.ftl.ftl import PageMappedFtl
from repro.ftl.mapping import UNMAPPED
from repro.ftl.victim import SipFilteredSelector
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.obs import ObservabilityConfig
from repro.oskernel.cache import PageCache
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=24)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


# ----------------------------------------------------------------------
# Page cache: expiry index vs full scan on random op sequences.
# ----------------------------------------------------------------------
cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "invalidate", "writeback", "query"]),
        st.integers(min_value=0, max_value=31),  # lpn
        st.integers(min_value=0, max_value=40),  # time (may go backwards)
    ),
    max_size=80,
)


@settings(max_examples=80, deadline=None)
@given(ops=cache_ops, tau=st.integers(min_value=1, max_value=20))
def test_cache_expiry_index_matches_scan(ops, tau):
    indexed = PageCache(page_size=4096, capacity_bytes=64 * 4096, indexed=True)
    scan = PageCache(page_size=4096, capacity_bytes=64 * 4096, indexed=False)
    now = 0
    for op, lpn, t in ops:
        now = max(now, t)
        if op == "write":
            indexed.write_page(lpn, t)
            scan.write_page(lpn, t)
        elif op == "invalidate":
            indexed.invalidate([lpn])
            scan.invalidate([lpn])
        elif op == "writeback":
            if scan.contains_dirty(lpn):
                indexed.begin_writeback([lpn])
                scan.begin_writeback([lpn])
                indexed.complete_writeback([lpn])
                scan.complete_writeback([lpn])
        else:
            assert indexed.oldest_dirty() == scan.oldest_dirty()
            assert list(indexed.iter_oldest_dirty()) == scan.oldest_dirty_scan()
            got = {e.lpn for e in indexed.expired_dirty(now, tau)}
            want = {e.lpn for e in scan.expired_dirty_scan(now, tau)}
            assert got == want
    assert indexed.oldest_dirty() == scan.oldest_dirty_scan()
    assert {e.lpn for e in indexed.expired_dirty(now, tau)} == {
        e.lpn for e in scan.expired_dirty(now, tau)
    }


# ----------------------------------------------------------------------
# Predictor: incremental Dbuf histogram vs full rescans at flusher ticks.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),  # lpn
            st.integers(min_value=0, max_value=60),  # time
        ),
        max_size=60,
    ),
    ticks=st.lists(st.integers(min_value=0, max_value=14), min_size=1, max_size=6),
)
def test_predictor_incremental_dbuf_matches_scan(writes, ticks):
    period, tau = 5, 30
    indexed_cache = PageCache(4096, 128 * 4096, indexed=True)
    scan_cache = PageCache(4096, 128 * 4096, indexed=False)
    indexed = BufferedWritePredictor(indexed_cache, period, tau, incremental=True)
    scan = BufferedWritePredictor(scan_cache, period, tau, incremental=False)
    for lpn, t in writes:
        indexed_cache.write_page(lpn, t)
        scan_cache.write_page(lpn, t)
    for tick in sorted(ticks):
        now = tick * period
        a = indexed.predict(now)
        b = scan.predict(now)
        assert a.demands_bytes == b.demands_bytes
        assert a.sip.as_set() == b.sip.as_set()


# ----------------------------------------------------------------------
# NAND: the fast address probe must raise exactly what the geometry-backed
# scan validation raises, and leave identical array state behind.
# ----------------------------------------------------------------------
nand_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "program", "erase", "mark_bad"]),
        st.integers(min_value=-3, max_value=30),  # block (array has 24)
        st.integers(min_value=-3, max_value=6),   # page (block has 4)
    ),
    max_size=120,
)


def _apply_nand_op(nand, op, block, page):
    try:
        if op == "read":
            return ("ok", nand.read_page(block, page))
        if op == "program":
            return ("ok", nand.program_page(block, page))
        if op == "erase":
            return ("ok", nand.erase_block(block))
        nand.mark_bad(block)
        return ("ok", None)
    except Exception as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=80, deadline=None)
@given(ops=nand_ops)
def test_nand_fast_check_matches_scan(ops):
    fast = NandArray(GEOMETRY, TIMING)
    with perf.scan_reference():
        ref = NandArray(GEOMETRY, TIMING)
    assert fast._check_addr == fast._check_addr_fast
    assert ref._check_addr == ref._check_addr_scan
    for op, block, page in ops:
        assert _apply_nand_op(fast, op, block, page) == _apply_nand_op(
            ref, op, block, page
        )
    assert np.array_equal(fast.program_ptr, ref.program_ptr)
    assert np.array_equal(fast.block_states, ref.block_states)
    assert np.array_equal(fast.erase_counts, ref.erase_counts)
    assert bytes(fast._bad) == bytes(ref._bad)
    assert (fast.page_reads, fast.page_programs, fast.block_erases) == (
        ref.page_reads, ref.page_programs, ref.block_erases
    )
    assert fast.good_blocks() == ref.good_blocks()


def test_nand_batch_ops_match_per_page_loops():
    batched = NandArray(GEOMETRY, TIMING)
    looped = NandArray(GEOMETRY, TIMING)
    ppb = GEOMETRY.pages_per_block
    lat_batch = batched.program_pages_batch(0, 0, 3)
    lat_loop = sum(looped.program_page(0, page) for page in range(3))
    assert lat_batch == lat_loop
    lat_batch = batched.read_pages_batch(0, 3)
    lat_loop = sum(looped.read_page(0, page) for page in range(3))
    assert lat_batch == lat_loop
    assert np.array_equal(batched.program_ptr, looped.program_ptr)
    assert np.array_equal(batched.block_states, looped.block_states)
    assert (batched.page_reads, batched.page_programs) == (
        looped.page_reads, looped.page_programs
    )
    # Frontier violations and overflow raise the per-page loop's types.
    import repro.nand.errors as errors

    with pytest.raises(errors.EraseBeforeWriteError):
        batched.program_pages_batch(0, 0, 1)  # behind the frontier (3)
    with pytest.raises(errors.ProgramOrderError):
        batched.program_pages_batch(1, 2, 1)  # ahead of block 1's frontier (0)
    with pytest.raises(errors.AddressError):
        batched.program_pages_batch(0, 3, ppb)  # runs past the block end


# ----------------------------------------------------------------------
# FTL: valid-count index, SIP-overlap counters, and victim decisions
# agree with the scan implementation under random traffic.
# ----------------------------------------------------------------------
def _make_ftl(indexed: bool) -> PageMappedFtl:
    def build() -> PageMappedFtl:
        return PageMappedFtl(
            NandArray(GEOMETRY, TIMING),
            SsdConfig(geometry=GEOMETRY, timing=TIMING, op_ratio=0.12),
            victim_selector=SipFilteredSelector(),
        )

    if indexed:
        return build()
    with perf.scan_reference():
        return build()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    writes=st.integers(min_value=50, max_value=300),
)
def test_ftl_indexes_match_scan_under_random_traffic(seed, writes):
    import random

    rng = random.Random(seed)
    indexed = _make_ftl(indexed=True)
    scan = _make_ftl(indexed=False)
    assert indexed.victim_index is not None and indexed.sip_index is not None
    assert scan.victim_index is None and scan.sip_index is None

    user_pages = indexed.space.user_pages
    for step in range(writes):
        lpn = rng.randrange(user_pages // 2)
        indexed.host_write_page(lpn)
        scan.host_write_page(lpn)
        if step % 17 == 0:
            sip = [rng.randrange(user_pages // 2) for _ in range(rng.randrange(8))]
            indexed.set_sip_list(sip)
            scan.set_sip_list(sip)
        if step % 13 == 0:
            assert indexed.has_victim() == scan.has_victim()
            if indexed.has_victim():
                a = indexed.collect_one_block(background=True)
                b = scan.collect_one_block(background=True)
                assert a == b
    # The index invariants hold, and both FTLs ended in the same state.
    indexed.invariant_check()
    scan.invariant_check()
    assert dict(indexed.victim_index.items()) == {
        int(block): scan.page_map.valid_count(int(block))
        for block in scan.gc_candidates()
    }
    assert indexed.stats.__dict__ == scan.stats.__dict__


def _raises_message(check) -> str:
    try:
        check()
    except AssertionError as exc:
        return str(exc)
    return ""


def test_batched_invariant_check_matches_scan_on_clean_and_corrupted_state():
    ftl = _make_ftl(indexed=True)
    user_pages = ftl.space.user_pages
    for lpn in range(user_pages // 2):
        ftl.host_write_page(lpn)
    for lpn in range(0, user_pages // 2, 3):
        ftl.host_write_page(lpn)
    pm = ftl.page_map
    # Clean state: both implementations accept it.
    pm.invariant_check()
    pm.invariant_check_scan()
    mapped = np.flatnonzero(pm._l2p != UNMAPPED)
    ppn = int(pm._l2p[mapped[0]])

    # Reverse-map corruption: only the l2p/p2l cross-check can see it.
    saved = int(pm._p2l[ppn])
    pm._p2l[ppn] = int(mapped[-1]) if int(mapped[-1]) != saved else saved + 1
    batched_msg = _raises_message(pm.invariant_check)
    scan_msg = _raises_message(pm.invariant_check_scan)
    assert batched_msg and batched_msg == scan_msg
    pm._p2l[ppn] = saved

    # Valid-bit corruption: population and per-block counters disagree.
    pm._valid[ppn] = False
    batched_msg = _raises_message(pm.invariant_check)
    scan_msg = _raises_message(pm.invariant_check_scan)
    assert batched_msg and batched_msg == scan_msg
    pm._valid[ppn] = True
    pm.invariant_check()
    pm.invariant_check_scan()


# ----------------------------------------------------------------------
# End-to-end: fig2- and fig7-style seed scenarios are bit-identical
# (RunMetrics AND decision-audit streams) across the two paths.
# ----------------------------------------------------------------------
AUDIT_OBS = ObservabilityConfig(audit=True, metrics_interval_ns=0)


def _run_both(spec: ScenarioSpec):
    indexed_metrics, indexed_host = _run_scenario_host(spec)
    with perf.scan_reference():
        scan_metrics, scan_host = _run_scenario_host(spec)
    return (indexed_metrics, indexed_host.obs.audit), (scan_metrics, scan_host.obs.audit)


def _assert_identical(indexed, scan):
    indexed_metrics, indexed_audit = indexed
    scan_metrics, scan_audit = scan
    assert indexed_metrics == scan_metrics
    assert indexed_audit.manager_ticks == scan_audit.manager_ticks
    assert indexed_audit.victim_selections == scan_audit.victim_selections
    assert indexed_audit.faults == scan_audit.faults


def test_fig7_seed_scenario_bit_identical():
    spec = ScenarioSpec(
        workload="YCSB",
        policy="JIT-GC",
        blocks=256,
        pages_per_block=32,
        warmup_s=10,
        measure_s=30,
        seed=7,
        obs=AUDIT_OBS,
    )
    indexed, scan = _run_both(spec)
    _assert_identical(indexed, scan)
    # The run actually exercised the hot paths under test.
    assert indexed[1].victim_selections


def test_fig2_seed_scenario_bit_identical():
    base = ScenarioSpec(
        blocks=256, pages_per_block=32, warmup_s=10, measure_s=20, seed=7, obs=AUDIT_OBS
    )
    specs = fig2_specs(base, workloads=("YCSB",), reserve_points=(1.5,))
    (spec,) = specs.values()
    indexed, scan = _run_both(spec)
    _assert_identical(indexed, scan)


@pytest.mark.parametrize("profile", ["none", "light", "heavy", "wearout"])
def test_fault_profile_scenarios_bit_identical(profile):
    # Under fault injection the FTL falls back to the per-page migration
    # loop even in indexed mode (batch ops would reorder the per-op RNG
    # streams); the indexed/scan equivalence contract must hold across
    # every profile regardless.
    spec = ScenarioSpec(
        workload="YCSB",
        policy="JIT-GC",
        blocks=128,
        pages_per_block=16,
        warmup_s=5,
        measure_s=10,
        seed=11,
        fault_profile=profile,
        obs=AUDIT_OBS,
    )
    indexed, scan = _run_both(spec)
    _assert_identical(indexed, scan)


# ----------------------------------------------------------------------
# Parallel executor: a --jobs run must agree with (and resume from) a
# serial run's checkpoint.
# ----------------------------------------------------------------------
def test_parallel_sweep_resumes_serial_checkpoint(tmp_path):
    base = ScenarioSpec(blocks=128, pages_per_block=32, warmup_s=5, measure_s=10, seed=3)
    first = [base.with_policy(name) for name in ("L-BGC", "JIT-GC")]
    checkpoint = os.fspath(tmp_path / "sweep.json")

    serial = run_sweep(first, checkpoint=checkpoint)
    assert serial.ok() and not serial.skipped

    superset = first + [base.with_policy("A-BGC")]
    parallel = run_sweep(superset, checkpoint=checkpoint, jobs=2)
    assert parallel.ok()
    # The serial results were resumed, not re-run...
    assert sorted(parallel.skipped) == sorted(spec.key() for spec in first)
    for spec in first:
        assert parallel.results[spec.key()] == serial.results[spec.key()]
    # ...results come back in input order, and the fresh scenario matches
    # what a serial run of it produces.
    assert list(parallel.results) == [spec.key() for spec in superset]
    alone = run_sweep([superset[-1]])
    assert parallel.results[superset[-1].key()] == alone.results[superset[-1].key()]


def test_streamed_aggregation_matches_serial_at_scale():
    # The streamed queue aggregation must reproduce the serial results
    # exactly at sweep scale.  Default 100 scenarios (the acceptance
    # scale); REPRO_SWEEP_SCALE trims it for constrained CI runners.
    count = int(os.environ.get("REPRO_SWEEP_SCALE", "100"))
    base = ScenarioSpec(
        workload="YCSB", blocks=48, pages_per_block=8, warmup_s=0, measure_s=1
    )
    policies = ("L-BGC", "A-BGC", "ADP-GC", "JIT-GC")
    specs = [
        replace(base.with_policy(policies[i % len(policies)]), seed=i)
        for i in range(count)
    ]
    assert len({spec.key() for spec in specs}) == count
    serial = run_sweep(list(specs), jobs=1)
    streamed = run_sweep(list(specs), jobs=2)
    assert serial.ok() and streamed.ok()
    assert list(streamed.results) == list(serial.results) == [s.key() for s in specs]
    assert streamed.results == serial.results


# ----------------------------------------------------------------------
# Batched host-write extents vs the per-page write loop.
# ----------------------------------------------------------------------
write_extents = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),  # first LPN
        st.integers(min_value=1, max_value=12),  # page count
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(extents=write_extents, sip_seed=st.integers(min_value=0, max_value=7))
def test_host_write_extent_matches_per_page_loop(extents, sip_seed):
    """host_write_extent must be bit-identical to the per-page loop:
    same latencies, clock, stats, mapping state, and index contents --
    across frontier rolls, overwrites, FGC stalls, and SIP overlap."""

    def build():
        geometry = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=24)
        config = SsdConfig(
            geometry=geometry, timing=TIMING, op_ratio=0.3, fgc_watermark=2
        )
        return PageMappedFtl(
            NandArray(geometry, TIMING), config, victim_selector=SipFilteredSelector()
        )

    batched, looped = build(), build()
    assert batched.supports_batched_writes
    sip = {lpn for lpn in range(64) if (lpn * 7 + sip_seed) % 3 == 0}
    batched.set_sip_list(sip)
    looped.set_sip_list(sip)

    user_pages = batched.space.user_pages
    for first, count in extents:
        count = min(count, user_pages - first)
        if count <= 0:
            continue
        lat_batched = batched.host_write_extent(first, count)
        lat_looped = sum(looped.host_write_page(first + i) for i in range(count))
        assert lat_batched == lat_looped

    assert batched._op_counter == looped._op_counter
    assert batched.stats == looped.stats
    assert np.array_equal(batched.page_map._l2p, looped.page_map._l2p)
    assert np.array_equal(batched.page_map._p2l, looped.page_map._p2l)
    assert np.array_equal(batched.page_map._valid, looped.page_map._valid)
    assert batched.page_map.mapped_count == looped.page_map.mapped_count
    assert np.array_equal(batched._closed, looped._closed)
    assert np.array_equal(batched._close_time, looped._close_time)
    assert dict(batched.victim_index.items()) == dict(looped.victim_index.items())
    assert np.array_equal(batched.sip_index.snapshot(), looped.sip_index.snapshot())
    # Both sides must also satisfy the cross-structure invariants.
    batched.invariant_check()
    looped.invariant_check()


def test_host_write_extent_large_chunks_match_per_page_loop():
    """Extents above PageMap._SCALAR_EXTENT_MAX take the vectorized
    remap path; it must agree with the per-page loop too."""

    def build():
        geometry = NandGeometry(page_size=4096, pages_per_block=64, blocks_per_plane=16)
        config = SsdConfig(
            geometry=geometry, timing=TIMING, op_ratio=0.3, fgc_watermark=2
        )
        return PageMappedFtl(
            NandArray(geometry, TIMING), config, victim_selector=SipFilteredSelector()
        )

    batched, looped = build(), build()
    batched.set_sip_list(range(0, 200, 3))
    looped.set_sip_list(range(0, 200, 3))
    extents = [(0, 60), (30, 50), (100, 48), (0, 60), (200, 40), (25, 55)]
    for first, count in extents:
        assert count > batched.page_map._SCALAR_EXTENT_MAX
        lat_b = batched.host_write_extent(first, count)
        lat_l = sum(looped.host_write_page(first + i) for i in range(count))
        assert lat_b == lat_l
    assert batched._op_counter == looped._op_counter
    assert batched.stats == looped.stats
    assert np.array_equal(batched.page_map._l2p, looped.page_map._l2p)
    assert np.array_equal(batched.page_map._p2l, looped.page_map._p2l)
    assert np.array_equal(batched.page_map._valid, looped.page_map._valid)
    assert dict(batched.victim_index.items()) == dict(looped.victim_index.items())
    assert np.array_equal(batched.sip_index.snapshot(), looped.sip_index.snapshot())
    batched.invariant_check()
    looped.invariant_check()
