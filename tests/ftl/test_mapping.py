"""Tests for LPN<->PPN mapping, validity tracking and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftl.mapping import UNMAPPED, PageMap
from repro.nand.geometry import NandGeometry

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=8)


def make_map(user_pages=16):
    return PageMap(GEOMETRY, user_pages)


def test_initially_unmapped():
    pm = make_map()
    assert pm.lookup(0) is None
    assert pm.mapped_count == 0
    assert pm.valid_count(0) == 0


def test_first_write_maps():
    pm = make_map()
    assert pm.remap(5, pm.ppn(1, 0)) is None
    assert pm.lookup(5) == pm.ppn(1, 0)
    assert pm.is_valid(pm.ppn(1, 0))
    assert pm.lpn_of_ppn(pm.ppn(1, 0)) == 5
    assert pm.mapped_count == 1
    assert pm.valid_count(1) == 1


def test_update_invalidates_old_page():
    pm = make_map()
    first = pm.ppn(1, 0)
    second = pm.ppn(2, 0)
    pm.remap(5, first)
    old = pm.remap(5, second)
    assert old == first
    assert not pm.is_valid(first)
    assert pm.is_valid(second)
    assert pm.valid_count(1) == 0
    assert pm.valid_count(2) == 1
    assert pm.mapped_count == 1  # still one live LPN


def test_unmap_trim():
    pm = make_map()
    ppn = pm.ppn(0, 2)
    pm.remap(7, ppn)
    assert pm.unmap(7) == ppn
    assert pm.lookup(7) is None
    assert not pm.is_valid(ppn)
    assert pm.mapped_count == 0
    assert pm.unmap(7) is None  # idempotent


def test_valid_lpns_in_block_order():
    pm = make_map()
    pm.remap(10, pm.ppn(3, 0))
    pm.remap(11, pm.ppn(3, 1))
    pm.remap(12, pm.ppn(3, 2))
    pm.remap(11, pm.ppn(4, 0))  # moves LPN 11 out of block 3
    pairs = list(pm.valid_lpns_in_block(3))
    assert pairs == [(0, 10), (2, 12)]


def test_clear_block_requires_no_valid_pages():
    pm = make_map()
    pm.remap(1, pm.ppn(2, 0))
    with pytest.raises(RuntimeError):
        pm.clear_block(2)
    pm.remap(1, pm.ppn(3, 0))  # invalidates block 2's copy
    pm.clear_block(2)  # now fine


def test_lpn_bounds():
    pm = make_map(user_pages=4)
    with pytest.raises(IndexError):
        pm.lookup(4)
    with pytest.raises(IndexError):
        pm.remap(-1, 0)


def test_address_helpers_roundtrip():
    pm = make_map()
    ppn = pm.ppn(5, 3)
    assert pm.block_of(ppn) == 5
    assert pm.page_of(ppn) == 3


def test_invariant_check_passes_after_workload():
    pm = make_map(user_pages=16)
    # Interleaved writes/updates/trims across blocks.
    ppn_iter = iter(range(GEOMETRY.total_pages))
    for lpn in [0, 1, 2, 0, 3, 1, 4, 2, 0]:
        pm.remap(lpn, next(ppn_iter))
    pm.unmap(3)
    pm.invariant_check()


def test_invariant_check_detects_corruption():
    pm = make_map()
    pm.remap(0, pm.ppn(0, 0))
    pm._valid_per_block[0] = 9  # simulate corruption
    with pytest.raises(AssertionError):
        pm.invariant_check()


# ----------------------------------------------------------------------
# load_mapping: the one-shot recovery install
# ----------------------------------------------------------------------
def test_load_mapping_rejects_two_lpns_on_one_ppn():
    pm = make_map()
    l2p = np.full(16, UNMAPPED, dtype=np.int64)
    l2p[[2, 5, 11]] = [7, 9, 7]
    with pytest.raises(ValueError, match="maps two LPNs to the same physical page"):
        pm.load_mapping(l2p)


def test_load_mapping_rejects_wrong_length_and_out_of_range_ppn():
    pm = make_map()
    with pytest.raises(ValueError, match="l2p table sized 15, map holds 16 LPNs"):
        pm.load_mapping(np.full(15, UNMAPPED, dtype=np.int64))
    l2p = np.full(16, UNMAPPED, dtype=np.int64)
    l2p[3] = GEOMETRY.total_pages  # one past the physical space
    with pytest.raises(IndexError):
        pm.load_mapping(l2p)


def test_load_mapping_replaces_existing_state():
    pm = make_map()
    for lpn in range(6):
        pm.remap(lpn, pm.ppn(lpn % 3, lpn // 3))
    l2p = np.full(16, UNMAPPED, dtype=np.int64)
    l2p[[1, 15]] = [pm.ppn(7, 3), pm.ppn(7, 0)]
    pm.load_mapping(l2p)
    assert pm.mapped_count == 2
    assert pm.valid_counts().tolist() == [0, 0, 0, 0, 0, 0, 0, 2]
    assert pm.lpn_of_ppn(pm.ppn(7, 3)) == 1
    assert pm.lpn_of_ppn(pm.ppn(0, 0)) is None
    pm.invariant_check()


# ----------------------------------------------------------------------
# migrate_pages: the batched GC move vs one remap() per page
# ----------------------------------------------------------------------
def snapshot(pm):
    return (
        pm._l2p.tolist(),
        pm._p2l.tolist(),
        pm._valid.tolist(),
        pm.valid_counts().tolist(),
        pm.mapped_count,
    )


@settings(max_examples=150, deadline=None)
@given(
    stale=st.sets(st.integers(0, 3)),
    dst_start=st.integers(0, 3),
    first_chunk=st.integers(0, 4),
)
def test_migrate_pages_equals_per_page_remap(stale, dst_start, first_chunk):
    """Block 1 is written full, the ``stale`` pages are overwritten into
    block 2, and what is left moves to block 5 from ``dst_start`` --
    rolling into block 6 where block 5 ends, or after ``first_chunk``
    pages, whichever comes first (the GC frontier filling mid-victim)."""
    batched, replayed = make_map(), make_map()
    for pm in (batched, replayed):
        for offset in range(4):
            pm.remap(8 + offset, pm.ppn(1, offset))
        for slot, offset in enumerate(sorted(stale)):
            pm.remap(8 + offset, pm.ppn(2, slot))
    offsets, lpns = batched.valid_pages_in_block(1)
    assert offsets.tolist() == [o for o in range(4) if o not in stale]
    assert lpns.tolist() == [8 + o for o in offsets.tolist()]
    split = min(first_chunk, 4 - dst_start, len(offsets))
    chunks = [(5, dst_start, 0, split), (6, 0, split, len(offsets))]

    for dst_block, start, lo, hi in chunks:
        batched.migrate_pages(1, offsets[lo:hi], lpns[lo:hi], dst_block, start)
        for i, lpn in enumerate(lpns[lo:hi].tolist()):
            replayed.remap(lpn, replayed.ppn(dst_block, start + i))

    assert snapshot(batched) == snapshot(replayed)
    batched.invariant_check()
    batched.clear_block(1)  # nothing valid was left behind


def test_migrate_pages_rejects_an_already_invalid_source_page():
    pm = make_map()
    pm.remap(3, pm.ppn(1, 0))
    pm.remap(4, pm.ppn(1, 1))
    offsets, lpns = pm.valid_pages_in_block(1)
    pm.remap(4, pm.ppn(2, 0))  # LPN 4 leaves block 1 behind the caller's back
    before = snapshot(pm)
    with pytest.raises(RuntimeError, match="migrating invalid pages out of block 1"):
        pm.migrate_pages(1, offsets, lpns, 5, 0)
    assert snapshot(pm) == before
