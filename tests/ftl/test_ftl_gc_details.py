"""Deeper FTL tests: FGC penalty, wear levelling, forced victims,
out-of-space behaviour and free-accounting arithmetic."""

import random

import numpy as np
import pytest

from repro.ftl.ftl import DeviceReadOnlyError, OutOfSpaceError
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=16)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


def make_ftl(fgc_penalty=1.0, wear_leveler=False, threshold=4):
    config = SsdConfig(
        geometry=GEOMETRY,
        timing=TIMING,
        op_ratio=0.25,
        fgc_penalty=fgc_penalty,
        enable_wear_leveling=wear_leveler,
        wear_level_threshold=threshold,
    )
    return config.build_ftl(nand=NandArray(GEOMETRY, TIMING))


def fill_with_garbage(ftl, overwrites=3):
    rng = random.Random(5)
    user = ftl.space.user_pages
    for _ in range(GEOMETRY.total_pages * overwrites):
        ftl.host_write_page(rng.randrange(user // 2))


def test_fgc_penalty_multiplies_stall():
    results = {}
    for penalty in (1.0, 4.0):
        ftl = make_ftl(fgc_penalty=penalty)
        fill_with_garbage(ftl)
        results[penalty] = ftl.stats.fgc_time_ns
    assert results[4.0] > 2.5 * results[1.0]


def test_fgc_penalty_validation():
    with pytest.raises(ValueError, match="fgc_penalty must be >= 1.0"):
        make_ftl(fgc_penalty=0.5)


def test_forced_victim_collection():
    ftl = make_ftl()
    fill_with_garbage(ftl, overwrites=2)
    candidates = ftl.gc_candidates()
    assert len(candidates) > 0
    victim = int(candidates[0])
    latency = ftl.collect_one_block(background=True, forced_victim=victim)
    assert latency > 0
    assert victim in ftl.allocator  # back in the free pool
    ftl.invariant_check()


def test_wear_level_hook_runs_after_enough_erases():
    ftl = make_ftl(wear_leveler=True, threshold=1)
    fill_with_garbage(ftl, overwrites=4)
    spent = ftl.maybe_wear_level(check_interval_erases=1)
    # Either the spread warranted a migration, or nothing to do -- but
    # the call must never corrupt state.
    assert spent >= 0
    ftl.invariant_check()


def test_wear_level_moves_a_fully_valid_cold_block():
    """Static wear levelling's textbook case: the least-erased block
    holds cold data and no garbage.  A forced victim is relocated
    whatever its valid count."""
    ftl = SsdConfig.small(
        blocks=64, pages_per_block=8, enable_wear_leveling=True, wear_level_threshold=1
    ).build_ftl()
    for lpn in range(8):
        ftl.host_write_page(lpn)
    user = ftl.space.user_pages
    for lpn in np.random.default_rng(0).integers(8, user // 2, size=20_000):
        ftl.host_write_page(int(lpn))
    assert ftl.page_map.valid_count(0) == 8
    assert ftl.wear_leveler.pick_cold_block(ftl.gc_candidates()) == 0

    assert ftl.maybe_wear_level(check_interval_erases=1) > 0
    assert ftl.stats.wl_blocks_collected == 1
    assert ftl.page_map.valid_count(0) == 0
    for lpn in range(8):
        ppn = ftl.page_map.lookup(lpn)
        assert ppn is not None and ppn // 8 != 0
        assert ftl.page_map.is_valid(ppn)
        assert ftl.page_map.lpn_of_ppn(ppn) == lpn
    ftl.invariant_check()


def test_wear_level_noop_without_leveler():
    ftl = make_ftl(wear_leveler=False)
    fill_with_garbage(ftl)
    assert ftl.maybe_wear_level(check_interval_erases=0) == 0


def test_out_of_space_error_informative():
    ftl = make_ftl()
    # Fill every logical page: all valid, no garbage anywhere.
    try:
        for lpn in range(ftl.space.user_pages):
            ftl.host_write_page(lpn)
    except OutOfSpaceError:
        return  # acceptable: died during fill
    with pytest.raises(OutOfSpaceError):
        while True:
            ftl.collect_one_block(background=True)


def test_all_valid_corner_is_not_out_of_space():
    # Regression (found by the durable-horizon hypothesis test): at
    # ~100% utilization a tiny device can momentarily pack every closed
    # block full of live pages.  Foreground GC then has no victim, but
    # the device is NOT out of space while frontier blocks remain -- the
    # very write being stalled invalidates its own stale copy.  Filling
    # the whole logical space and overwriting it repeatedly must never
    # raise.
    ftl = make_ftl()
    for lpn in range(ftl.space.user_pages):
        ftl.host_write_page(lpn)
    for _ in range(3):
        for lpn in range(ftl.space.user_pages):
            ftl.host_write_page(lpn)
    ftl.invariant_check()


def test_free_pages_arithmetic():
    ftl = make_ftl()
    ppb = GEOMETRY.pages_per_block
    expected = ftl.free_pool_blocks() * ppb + 2 * ppb  # two fresh frontiers
    assert ftl.free_pages() == expected
    ftl.host_write_page(0)
    assert ftl.free_pages() == expected - 1
    assert ftl.free_bytes() == ftl.free_pages() * GEOMETRY.page_size


def test_reclaimable_garbage_counts_invalid_in_closed_blocks():
    ftl = make_ftl()
    assert ftl.reclaimable_garbage_pages() == 0
    # Fill two blocks with the same LPN repeatedly: first block becomes
    # fully invalid once closed.
    for _ in range(GEOMETRY.pages_per_block + 1):
        ftl.host_write_page(0)
    assert ftl.reclaimable_garbage_pages() == GEOMETRY.pages_per_block


def test_gc_preserves_data_addressability():
    ftl = make_ftl()
    fill_with_garbage(ftl, overwrites=3)
    # Collect several blocks; every mapped LPN must still resolve.
    for _ in range(4):
        if ftl.has_victim():
            ftl.collect_one_block(background=True)
    for lpn in range(ftl.space.user_pages):
        ppn = ftl.page_map.lookup(lpn)
        if ppn is not None:
            assert ftl.page_map.lpn_of_ppn(ppn) == lpn


# ----------------------------------------------------------------------
# The batched migration (evacuate the victim, land it per frontier run)
# against the per-page migration, on twin FTLs
# ----------------------------------------------------------------------
WIDE = NandGeometry(page_size=512, pages_per_block=8, blocks_per_plane=32)


def make_twin(mode, gc_free):
    """A churned FTL whose GC frontier has exactly ``gc_free`` pages left
    (0: it is full, so the next migrated page rolls it first)."""
    config = SsdConfig(
        geometry=WIDE,
        timing=TIMING,
        op_ratio=0.25,
        mapping_mode="dftl" if mode == "dftl" else "dram",
        cmt_budget_bytes=512 if mode == "dftl" else None,
        reliability="mlc-20nm" if mode == "mlc-20nm" else None,
    )
    ftl = config.build_ftl()
    rng = random.Random(11)
    user = ftl.space.user_pages
    for _ in range(WIDE.total_pages * 2):
        ftl.host_write_page(rng.randrange(user))
    # Pad the GC frontier the way the per-page path moves one page.
    ppb = WIDE.pages_per_block
    lpn = 0
    while ppb - ftl.nand.next_programmable_page(ftl.active_gc_block) != gc_free:
        block, page, _ = ftl._program(ftl._gc, lpn)
        ftl.page_map.remap(lpn, block * ppb + page)
        lpn += 1
    return ftl


def collect_per_page(ftl, victim):
    """``_migrate_and_erase`` with the media refusing the bulk victim
    read, so the per-page migration (and the ``clear_block`` that follows
    it) stands in for the batched path."""
    ftl.media.read_block = lambda block, count: None
    try:
        return ftl._migrate_and_erase(victim)
    finally:
        del ftl.media.read_block


@pytest.mark.parametrize("gc_free, runs", [(7, 1), (1, 2), (0, 1)])
@pytest.mark.parametrize(
    "mode, sip",
    [("dram", False), ("dram", True), ("dftl", False), ("mlc-20nm", False)],
)
def test_batched_migration_equals_per_page_scan(mode, sip, gc_free, runs):
    batched, scanned = (make_twin(mode, gc_free) for _ in range(2))
    pm = batched.page_map
    # The fullest closed victim with garbage: 2..7 valid pages, so it
    # fits the frontier (7 free), straddles it (1 free) or rolls it (0).
    victim = max(
        (
            block
            for block, count in batched.victim_index.items()
            if 2 <= count < WIDE.pages_per_block
            and not (mode == "dftl" and pm.block_holds_trans(block))
        ),
        key=lambda block: (pm.valid_count(block), block),
    )
    if mode == "mlc-20nm":
        outcome = batched.media.verdict(victim)
        assert outcome.level == 0 and outcome.ok  # a fast-path block
        scanned.media.verdict(victim)
    if sip:
        mine = [lpn for _, lpn in pm.valid_lpns_in_block(victim)]
        for ftl in (batched, scanned):
            ftl.set_sip_list(mine[::2] + list(range(0, 40, 3)))
        assert batched.sip_index.overlap(victim) >= len(mine[::2])
    programs_before = batched.nand.batch_programs

    latency = batched._migrate_and_erase(victim)

    assert batched.nand.batch_programs - programs_before == runs
    assert latency == collect_per_page(scanned, victim)
    assert batched.stats == scanned.stats
    assert batched._write_seq == scanned._write_seq
    assert np.array_equal(batched.page_map._l2p, scanned.page_map._l2p)
    assert np.array_equal(batched.page_map._p2l, scanned.page_map._p2l)
    assert np.array_equal(batched.page_map._valid, scanned.page_map._valid)
    assert np.array_equal(batched.page_map.valid_counts(), scanned.page_map.valid_counts())
    assert np.array_equal(batched.nand.oob_lpn, scanned.nand.oob_lpn)
    assert np.array_equal(batched.nand.oob_seq, scanned.nand.oob_seq)
    assert np.array_equal(batched.nand.program_ptr, scanned.nand.program_ptr)
    assert dict(batched.victim_index.items()) == dict(scanned.victim_index.items())
    assert np.array_equal(batched.sip_index.snapshot(), scanned.sip_index.snapshot())
    assert batched.active_gc_block == scanned.active_gc_block
    batched.invariant_check()
    scanned.invariant_check()


def test_pool_exhausted_under_a_migration_leaves_a_consistent_device():
    """Wear-out without a fault injector keeps the batched path on.  When
    retirements have eaten the spare blocks, the GC frontier can find the
    pool empty mid-victim: the device goes read-only there, and the pages
    that never landed must be back in the victim, index included."""
    geometry = NandGeometry(page_size=4096, pages_per_block=8, blocks_per_plane=32)
    cut_mid_migration = 0
    for seed in range(12):
        config = SsdConfig(
            geometry=geometry, timing=TIMING, op_ratio=0.25, pe_cycle_limit=5
        )
        ftl = config.build_ftl()
        rng = random.Random(seed)
        user = ftl.space.user_pages
        with pytest.raises(DeviceReadOnlyError) as raised:
            while True:
                ftl.host_write_extent(rng.randrange(user - 6), rng.randrange(1, 7))
        frames = [frame.name for frame in raised.traceback]
        cut_mid_migration += "_migrate_valid_pages_batched" in frames
        ftl.invariant_check()
        for lpn in range(user):
            ppn = ftl.page_map.lookup(lpn)
            assert ppn is None or ftl.page_map.lpn_of_ppn(ppn) == lpn
    assert cut_mid_migration > 0
