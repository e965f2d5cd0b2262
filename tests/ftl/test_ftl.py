"""Tests for the page-mapped FTL: write path, FGC, BGC, SIP plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftl.ftl import OutOfSpaceError
from repro.ftl.victim import SipFilteredSelector
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=16)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


def make_ftl(op_ratio=0.25, selector=None, watermark=2):
    config = SsdConfig(
        geometry=GEOMETRY, timing=TIMING, op_ratio=op_ratio, fgc_watermark=watermark
    )
    ftl = config.build_ftl(nand=NandArray(GEOMETRY, TIMING))
    if selector is not None:
        ftl.victim_selector = selector
    return ftl


def test_initial_capacity():
    ftl = make_ftl()
    # Two active blocks are held out of the pool.
    assert ftl.free_pool_blocks() == GEOMETRY.total_blocks - 2
    assert ftl.free_pages() == GEOMETRY.total_pages
    assert ftl.used_pages() == 0


def test_write_and_read_roundtrip_latencies():
    ftl = make_ftl()
    write_latency = ftl.host_write_page(0)
    assert write_latency == TIMING.program_ns + TIMING.transfer_ns_per_page
    read_latency = ftl.host_read_page(0)
    assert read_latency == TIMING.read_ns + TIMING.transfer_ns_per_page


def test_unmapped_read_costs_transfer_only():
    ftl = make_ftl()
    assert ftl.host_read_page(3) == TIMING.transfer_ns_per_page


def test_write_decrements_free_pages():
    ftl = make_ftl()
    before = ftl.free_pages()
    ftl.host_write_page(0)
    assert ftl.free_pages() == before - 1


def test_overwrite_keeps_used_constant():
    ftl = make_ftl()
    ftl.host_write_page(5)
    ftl.host_write_page(5)
    assert ftl.used_pages() == 1
    assert ftl.stats.host_pages_written == 2


def test_frontier_rolls_to_new_block():
    ftl = make_ftl()
    pool_before = ftl.free_pool_blocks()
    for lpn in range(GEOMETRY.pages_per_block + 1):
        ftl.host_write_page(lpn)
    assert ftl.free_pool_blocks() == pool_before - 1


def test_foreground_gc_triggers_and_reclaims():
    ftl = make_ftl()
    user = ftl.space.user_pages
    # Overwrite a small working set far beyond capacity: plenty of garbage.
    writes = GEOMETRY.total_pages * 3
    for i in range(writes):
        ftl.host_write_page(i % (user // 2))
    assert ftl.stats.fgc_invocations > 0
    assert ftl.free_pool_blocks() > ftl.fgc_watermark
    ftl.invariant_check()


def test_fgc_latency_charged_to_write():
    ftl = make_ftl()
    user = ftl.space.user_pages
    saw_stall = False
    for i in range(GEOMETRY.total_pages * 2):
        latency = ftl.host_write_page(i % (user // 2))
        if latency > TIMING.program_ns + TIMING.transfer_ns_per_page:
            saw_stall = True
    assert saw_stall
    assert ftl.stats.fgc_time_ns > 0


def test_waf_grows_under_gc():
    import random

    rng = random.Random(3)
    ftl = make_ftl()
    user = ftl.space.user_pages
    # Random updates over most of the space: victims keep valid pages.
    for _ in range(GEOMETRY.total_pages * 3):
        ftl.host_write_page(rng.randrange(user * 3 // 4))
    assert ftl.stats.waf() > 1.0
    assert ftl.stats.gc_pages_migrated > 0


def test_background_collection_frees_space():
    ftl = make_ftl()
    user = ftl.space.user_pages
    for i in range(GEOMETRY.total_pages * 2):
        ftl.host_write_page(i % (user // 2))
    free_before = ftl.free_pages()
    latency = ftl.collect_one_block(background=True)
    assert latency > 0
    assert ftl.free_pages() >= free_before
    assert ftl.stats.bgc_blocks_collected == 1


def test_trim_creates_garbage():
    ftl = make_ftl()
    for lpn in range(8):
        ftl.host_write_page(lpn)
    ftl.trim(range(8))
    assert ftl.used_pages() == 0
    assert ftl.stats.pages_trimmed == 8
    ftl.invariant_check()


def test_sequential_overwrite_gives_waf_near_one():
    """Pure sequential overwrite: victims are fully invalid, WAF ~ 1."""
    ftl = make_ftl(op_ratio=0.25)
    user = ftl.space.user_pages
    for sweep in range(4):
        for lpn in range(user // 2):
            ftl.host_write_page(lpn)
    assert ftl.stats.waf() < 1.05


def test_out_of_space_when_full_of_live_data():
    ftl = make_ftl(op_ratio=0.25, watermark=2)
    # Fill every logical page so nothing is garbage; then force GC.
    with pytest.raises((OutOfSpaceError, Exception)):
        for lpn in range(ftl.space.user_pages):
            ftl.host_write_page(lpn)
        # Device may survive the fill thanks to OP; explicit collection
        # of garbage-free space must then fail.
        while True:
            ftl.collect_one_block(background=True)


def test_sip_list_reaches_selector_and_stats():
    selector = SipFilteredSelector(sip_fraction_threshold=0.5)
    ftl = make_ftl(selector=selector)
    user = ftl.space.user_pages
    hot = list(range(4))
    for i in range(GEOMETRY.total_pages * 2):
        ftl.host_write_page(i % (user // 2))
    ftl.set_sip_list(hot)
    assert ftl.sip_lpns == set(hot)
    for _ in range(6):
        if ftl.has_victim():
            ftl.collect_one_block(background=True)
    assert ftl.stats.victim_selections > 0


def test_invariant_check_after_mixed_workload():
    ftl = make_ftl()
    user = ftl.space.user_pages
    for i in range(GEOMETRY.total_pages):
        ftl.host_write_page((i * 7) % (user // 2))
        if i % 13 == 0:
            ftl.trim([(i * 3) % (user // 2)])
    ftl.invariant_check()


def test_has_victim_false_on_fresh_device():
    ftl = make_ftl()
    assert not ftl.has_victim()


def test_watermark_validation():
    with pytest.raises(ValueError, match="fgc_watermark must be >= 2"):
        SsdConfig(geometry=GEOMETRY, timing=TIMING, fgc_watermark=1)


@settings(max_examples=60, deadline=None)
@given(
    program=st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 47), st.integers(1, 12)),
            st.tuples(st.just("trim"), st.integers(0, 47), st.integers(1, 12)),
            st.tuples(st.just("collect"), st.booleans()),
        ),
        max_size=60,
    )
)
def test_a_dram_map_evacuates_only_data_stamps(program):
    """Host writes (with the foreground GC they trigger), background and
    forced relocations and TRIMs never put a stamp at or above
    ``user_pages`` into an evacuated run of a DRAM map: only the
    flash-resident map stamps translation pages, so only it has to
    refuse a victim holding both page classes."""
    ftl = make_ftl()
    pm = ftl.page_map
    user = ftl.space.user_pages
    runs = []
    evacuate = pm.evacuate_block

    def recording(block):
        offsets, lpns = evacuate(block)
        runs.append(lpns.copy())
        return offsets, lpns

    pm.evacuate_block = recording
    for _ in range(2):
        ftl.host_write_extent(0, user)
    for action, *args in program:
        if action == "write":
            first, count = args
            ftl.host_write_extent(first, min(count, user - first))
        elif action == "trim":
            first, count = args
            ftl.trim(range(first, min(first + count, user)))
        elif args[0]:
            top = ftl.victim_index.min_block()
            if top is not None:
                ftl.collect_one_block(background=True, forced_victim=top[0])
        elif ftl.has_victim():
            ftl.collect_one_block(background=True)
    assert runs  # the second pass of the pre-fill already collects
    for lpns in runs:
        assert ((0 <= lpns) & (lpns < user)).all()
    ftl.invariant_check()


# ----------------------------------------------------------------------
# Batched host-write extents vs the per-page write loop
# ----------------------------------------------------------------------
def _extent_twins(geometry):
    config = SsdConfig(geometry=geometry, timing=TIMING, op_ratio=0.3, fgc_watermark=2)
    twins = [config.build_ftl(nand=NandArray(geometry, TIMING)) for _ in range(2)]
    for ftl in twins:
        ftl.victim_selector = SipFilteredSelector()
    return twins


def _assert_same_state(batched, looped):
    assert batched._op_counter == looped._op_counter
    assert batched.stats == looped.stats
    assert np.array_equal(batched.page_map._l2p, looped.page_map._l2p)
    assert np.array_equal(batched.nand.oob_lpn, looped.nand.oob_lpn)
    assert np.array_equal(batched.page_map._valid, looped.page_map._valid)
    assert batched.page_map.mapped_count == looped.page_map.mapped_count
    assert np.array_equal(batched._closed, looped._closed)
    assert dict(batched.victim_index.items()) == dict(looped.victim_index.items())
    assert np.array_equal(batched.sip_index.snapshot(), looped.sip_index.snapshot())
    # Both sides must also satisfy the cross-structure invariants.
    batched.invariant_check()
    looped.invariant_check()


@settings(max_examples=60, deadline=None)
@given(
    extents=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=60),  # first LPN
            st.integers(min_value=1, max_value=12),  # page count
        ),
        min_size=1,
        max_size=40,
    ),
    sip_seed=st.integers(min_value=0, max_value=7),
)
def test_host_write_extent_matches_per_page_loop(extents, sip_seed):
    """host_write_extent must be bit-identical to the per-page loop:
    same latencies, clock, stats, mapping state, and index contents --
    across frontier rolls, overwrites, FGC stalls, and SIP overlap."""
    geometry = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=24)
    batched, looped = _extent_twins(geometry)
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
    _assert_same_state(batched, looped)


def test_host_write_extent_large_chunks_match_per_page_loop():
    """Extents above PageMap._SCALAR_EXTENT_MAX take the vectorized
    remap path; it must agree with the per-page loop too."""
    geometry = NandGeometry(page_size=4096, pages_per_block=64, blocks_per_plane=16)
    batched, looped = _extent_twins(geometry)
    batched.set_sip_list(range(0, 200, 3))
    looped.set_sip_list(range(0, 200, 3))
    extents = [(0, 60), (30, 50), (100, 48), (0, 60), (200, 40), (25, 55)]
    for first, count in extents:
        assert count > batched.page_map._SCALAR_EXTENT_MAX
        lat_b = batched.host_write_extent(first, count)
        lat_l = sum(looped.host_write_page(first + i) for i in range(count))
        assert lat_b == lat_l
    _assert_same_state(batched, looped)


def test_host_write_extent_stamps_the_op_counter_clock_as_the_loop_does():
    """A standalone FTL's clock is its op counter; the reliability model
    stamps each block's last program with it, at the chunk's last page."""
    config = SsdConfig.small(blocks=128, pages_per_block=16, reliability="mlc-20nm")
    batched, looped = (config.build_ftl() for _ in range(2))
    batched.host_write_extent(0, 40)
    for lpn in range(40):
        looped.host_write_page(lpn)
    assert np.array_equal(batched.nand.last_program_ns, looped.nand.last_program_ns)
    assert looped.nand.last_program_ns[looped.active_user_block] == 40


def test_dftl_host_write_extent_counts_every_cmt_hit():
    """In dftl mode the extent touches each translation page once per
    chunk; the per-page loop's repeat touches of that page are hits and
    must be counted, so every FtlStats field matches the loop's."""
    config = SsdConfig.small(blocks=128, pages_per_block=16, mapping_mode="dftl")
    batched, looped = (config.build_ftl() for _ in range(2))
    for first in range(0, 1000, 50):
        batched.host_write_extent(first, 50)
    for lpn in range(1000):
        looped.host_write_page(lpn)
    for name, value in vars(looped.stats).items():
        assert getattr(batched.stats, name) == value, name
    assert looped.stats.cmt_hits == 998
