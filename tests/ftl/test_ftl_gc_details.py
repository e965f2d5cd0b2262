"""Deeper FTL tests: FGC penalty, wear levelling, forced victims,
out-of-space behaviour and free-accounting arithmetic."""

import pytest

from repro.ftl.ftl import OutOfSpaceError
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
    import random

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
