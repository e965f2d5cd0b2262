"""Tests for LPN<->PPN mapping, validity tracking and invariants.

The maps here stand alone over an OOB plane of their own, stamped before
each remap as the NAND stamps a page (``tests/ftl/stamped.py``)."""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ftl.mapping import UNMAPPED, PageMap
from repro.nand.geometry import NandGeometry
from tests.ftl.stamped import StampedPageMap

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=8)


def make_map(user_pages=16):
    return StampedPageMap(GEOMETRY, user_pages)


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
    assert type(pm.valid_count(1)) is int  # not a NumPy scalar


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


def test_the_map_reads_stamps_through_a_read_only_view():
    """The NAND is the only writer of stamps: a write through the map's
    view raises, and a page's LPN is its stamp only while it is valid."""
    pm = make_map()
    pm.remap(5, pm.ppn(1, 0))
    with pytest.raises(ValueError, match="read-only"):
        pm._stamps[pm.ppn(1, 0)] = 6
    assert pm.lpn_of_ppn(pm.ppn(1, 0)) == 5
    pm.remap(5, pm.ppn(2, 0))
    assert pm.oob[pm.ppn(1, 0)] == 5  # the stale copy keeps its stamp...
    assert pm.lpn_of_ppn(pm.ppn(1, 0)) is None  # ...but holds no LPN
    pm.oob[pm.ppn(2, 0)] = 9  # the NAND's own writes show through
    assert pm.lpn_of_ppn(pm.ppn(2, 0)) == 9


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


def invariant_check_per_lpn(pm):
    """The per-LPN loop :meth:`PageMap.invariant_check` vectorises."""
    ppb = GEOMETRY.pages_per_block
    if sum(bool(v) for v in pm._valid) != pm.mapped_count:
        raise AssertionError("valid-page population does not match mapped_count")
    for block in range(GEOMETRY.total_blocks):
        if sum(bool(v) for v in pm._valid[block * ppb:(block + 1) * ppb]) != int(
            pm._valid_per_block[block]
        ):
            raise AssertionError("per-block valid counters out of sync")
    for lpn in range(pm.user_pages):
        ppn = int(pm._l2p[lpn])
        if ppn == UNMAPPED:
            continue
        if not 0 <= ppn < GEOMETRY.total_pages:
            raise AssertionError(f"l2p entry outside the physical space at LPN {lpn}")
        if not pm._valid[ppn] or int(pm._stamps[ppn]) != lpn:
            raise AssertionError(f"l2p/stamp mismatch at LPN {lpn}")


def _raises_message(check) -> str:
    try:
        check()
    except AssertionError as exc:
        return str(exc)
    return ""


def test_batched_invariant_check_matches_scan_on_clean_and_corrupted_state():
    pm = make_map()
    for ppn, lpn in enumerate(list(range(12)) + list(range(0, 12, 3))):
        pm.remap(lpn, ppn)
    # Clean state: both accept it.
    pm.invariant_check()
    invariant_check_per_lpn(pm)
    mapped = np.flatnonzero(pm._l2p != UNMAPPED)
    ppn = int(pm._l2p[mapped[0]])

    # The page carries another LPN's stamp: only the l2p/stamp
    # cross-check can see it, and it names the entry.
    saved = int(pm.oob[ppn])
    pm.oob[ppn] = int(mapped[-1])
    batched_msg = _raises_message(pm.invariant_check)
    assert batched_msg == f"l2p/stamp mismatch at LPN {int(mapped[0])}"
    assert batched_msg == _raises_message(lambda: invariant_check_per_lpn(pm))
    pm.oob[ppn] = saved

    # Valid-bit corruption: population and per-block counters disagree.
    pm._valid[ppn] = False
    batched_msg = _raises_message(pm.invariant_check)
    assert batched_msg and batched_msg == _raises_message(
        lambda: invariant_check_per_lpn(pm)
    )
    pm._valid[ppn] = True
    pm.invariant_check()
    invariant_check_per_lpn(pm)


@pytest.mark.parametrize("entry", [-2, -GEOMETRY.total_pages, GEOMETRY.total_pages])
def test_invariant_check_flags_a_mapped_entry_outside_the_physical_space(entry):
    """A negative entry other than ``UNMAPPED`` used to pass: as a fancy
    index it wraps round onto a real page, valid and pointing back."""
    pm = make_map()
    for lpn in range(8):
        pm.remap(lpn, 8 + lpn)
    # LPN 5 really lives where the entry wraps round to (if it does).
    pm.remap(5, entry % GEOMETRY.total_pages)
    pm.invariant_check()
    pm._l2p[5] = entry
    expected = "l2p entry outside the physical space at LPN 5"
    assert _raises_message(pm.invariant_check) == expected
    assert _raises_message(lambda: invariant_check_per_lpn(pm)) == expected


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
    with pytest.raises(ValueError, match="l2p entry outside the physical space"):
        pm.load_mapping(l2p)


@pytest.mark.parametrize("entry", [-2, -GEOMETRY.total_pages, GEOMETRY.total_pages])
def test_load_mapping_rejects_an_entry_outside_the_physical_space_untouched(entry):
    """Only ``UNMAPPED`` may be negative.  A -2 used to be caught only by
    ``np.bincount`` failing after the reverse map and the validity plane
    were already rewritten -- or, wrapped round, not at all."""
    pm = make_map()
    for lpn in range(6):
        pm.remap(lpn, pm.ppn(lpn % 3, lpn // 3))
    before = snapshot(pm)
    l2p = np.full(16, UNMAPPED, dtype=np.int64)
    l2p[[1, 3]] = [pm.ppn(7, 3), entry]
    with pytest.raises(ValueError, match="l2p entry outside the physical space"):
        pm.load_mapping(l2p)
    assert snapshot(pm) == before
    pm.invariant_check()


def test_load_mapping_replaces_existing_state():
    pm = make_map()
    for lpn in range(6):
        pm.remap(lpn, pm.ppn(lpn % 3, lpn // 3))
    l2p = np.full(16, UNMAPPED, dtype=np.int64)
    l2p[[1, 15]] = [pm.ppn(7, 3), pm.ppn(7, 0)]
    pm.oob[l2p[[1, 15]]] = [1, 15]  # the recovered image's stamps
    pm.load_mapping(l2p)
    assert pm.mapped_count == 2
    assert pm.valid_counts().tolist() == [0, 0, 0, 0, 0, 0, 0, 2]
    assert pm.lpn_of_ppn(pm.ppn(7, 3)) == 1
    assert pm.lpn_of_ppn(pm.ppn(0, 0)) is None
    pm.invariant_check()


def snapshot(pm):
    return (
        pm._l2p.tolist(),
        [pm.lpn_of_ppn(ppn) for ppn in range(len(pm._valid))],
        pm._valid.tolist(),
        pm.valid_counts().tolist(),
        pm.mapped_count,
    )


# ----------------------------------------------------------------------
# remap_extent: the batched host write vs one remap() per page
# ----------------------------------------------------------------------
SCALAR_MAX = PageMap._SCALAR_EXTENT_MAX
PPB = 2 * SCALAR_MAX + 4  # the longest extent tried, and room for a stranger
WIDE = NandGeometry(page_size=4096, pages_per_block=PPB, blocks_per_plane=12)
#: Where each LPN of the extent lives beforehand: -1 is a hole
#: (``UNMAPPED``), ``k >= 0`` the next free page of old block ``1 + k``.
LAYOUT = st.integers(-1, 5)


def old_layout_twins(first, layout):
    twins = StampedPageMap(WIDE, 64), StampedPageMap(WIDE, 64)
    for pm in twins:
        used = [0] * 6
        for i, where in enumerate(layout):
            if where >= 0:
                pm.remap(first + i, pm.ppn(1 + where, used[where]))
                used[where] += 1
        # Neighbours of the extent, so its blocks hold strangers too.
        pm.remap((first - 1) % 64, pm.ppn(8, 0))
        pm.remap((first + len(layout)) % 64, pm.ppn(1, PPB - 1))
    return twins


@pytest.mark.parametrize("n", range(1, 2 * SCALAR_MAX + 3))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_remap_extent_equals_per_page_remap(n, data):
    """Both branches and the boundary between them, from states with
    holes anywhere in the extent and old pages scattered over up to
    ``n`` blocks (a block may recur in non-adjacent runs)."""
    layout = data.draw(st.lists(LAYOUT, min_size=n, max_size=n))
    first = data.draw(st.integers(0, 64 - n))
    dst_start = data.draw(st.integers(0, PPB - n))
    check_remap_extent(first, layout, dst_start)


@pytest.mark.parametrize(
    "layout",
    [
        [-1, 0, 0, 1, 1, 1, 0, 0],            # hole at the head, block 0 recurs
        [0, 0, -1, -1, 0, 1, 2, 3, 4, 5],     # hole in the middle of one run
        [3, 3, 3, 3, 3, 3, 3, -1, -1],        # one block, hole at the tail
        [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5],  # a new run on every page
        [-1] * 9,                             # nothing mapped before
        [-1, 2, -1],
    ],
)
def test_remap_extent_named_layouts(layout):
    check_remap_extent(first=20, layout=layout, dst_start=2)


def check_remap_extent(first, layout, dst_start):
    n = len(layout)
    batched, replayed = old_layout_twins(first, layout)
    dst = batched.ppn(9, dst_start)

    old_ppns, runs = batched.remap_extent(first, n, dst)
    replayed_old = [replayed.remap(first + i, dst + i) for i in range(n)]

    assert snapshot(batched) == snapshot(replayed)
    assert old_ppns == [UNMAPPED if old is None else old for old in replayed_old]
    mapped_blocks = [old // PPB for old in old_ppns if old != UNMAPPED]
    assert runs == [(block, len(list(run))) for block, run in groupby(mapped_blocks)]
    assert sum(pages for _, pages in runs) == len(mapped_blocks)
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
    batched.invariant_check()


@pytest.mark.parametrize("n", [SCALAR_MAX, SCALAR_MAX + 1])
def test_remap_extent_rejects_a_double_invalidation_in_both_branches(n):
    pm, _ = old_layout_twins(0, [0] * n)
    pm._valid[pm.lookup(n - 1)] = False  # the bitmap lost a page behind our back
    with pytest.raises(RuntimeError, match="double invalidation in remap_extent"):
        pm.remap_extent(0, n, pm.ppn(9, 0))


# ----------------------------------------------------------------------
# evacuate_block + migrate_pages: the batched GC move vs one remap() per
# page
# ----------------------------------------------------------------------
def victim_twins(stale):
    """Block 1 written full, the ``stale`` pages overwritten into block 2."""
    twins = make_map(), make_map()
    for pm in twins:
        for offset in range(4):
            pm.remap(8 + offset, pm.ppn(1, offset))
        for slot, offset in enumerate(sorted(stale)):
            pm.remap(8 + offset, pm.ppn(2, slot))
    return twins


@settings(max_examples=150, deadline=None)
@given(
    stale=st.sets(st.integers(0, 3)),
    dst_start=st.integers(0, 3),
    first_chunk=st.integers(0, 4),
)
@example(stale=set(), dst_start=0, first_chunk=4)         # a full victim, one run
@example(stale={0, 1, 2, 3}, dst_start=1, first_chunk=2)  # an empty victim
@example(stale={1}, dst_start=2, first_chunk=4)           # split where block 5 ends
@example(stale=set(), dst_start=3, first_chunk=0)         # rolls on its first page
def test_migrate_pages_equals_per_page_remap(stale, dst_start, first_chunk):
    """What is left in block 1 is evacuated and lands in block 5 from
    ``dst_start`` -- rolling into block 6 where block 5 ends, or after
    ``first_chunk`` pages, whichever comes first (the GC frontier filling
    mid-victim)."""
    batched, replayed = victim_twins(stale)
    offsets, lpns = batched.evacuate_block(1)
    assert offsets.tolist() == [o for o in range(4) if o not in stale]
    assert lpns.tolist() == [8 + o for o in offsets.tolist()]
    batched.clear_block(1)  # already in the state an erase needs
    assert list(batched.valid_lpns_in_block(1)) == []
    split = min(first_chunk, 4 - dst_start, len(lpns))
    runs = [(5, dst_start, 0, split), (6, 0, split, len(lpns))]

    for dst_block, start, lo, hi in runs:
        batched.migrate_pages(lpns[lo:hi], dst_block, start)  # an empty run is a no-op
        for i, lpn in enumerate(lpns[lo:hi].tolist()):
            replayed.remap(lpn, replayed.ppn(dst_block, start + i))

    assert snapshot(batched) == snapshot(replayed)
    batched.invariant_check()
    batched.clear_block(1)  # nothing valid was left behind


@pytest.mark.parametrize("corruption", ["counter", "bitmap"])
def test_evacuate_block_rejects_a_miscounted_block(corruption):
    pm, _ = victim_twins(stale={2})
    if corruption == "counter":
        pm._valid_per_block[1] += 1
    else:
        pm._valid[pm.ppn(1, 0)] = False
    before = snapshot(pm)
    with pytest.raises(RuntimeError, match="block 1 holds"):
        pm.evacuate_block(1)
    assert snapshot(pm) == before


@pytest.mark.parametrize("landed", [0, 1, 3])
def test_reinstate_pages_puts_back_what_never_landed(landed):
    """A migration cut short after ``landed`` pages equals the per-page
    replay of just those pages: the rest is valid in the victim again."""
    batched, replayed = victim_twins(stale={1})
    _, lpns = batched.evacuate_block(1)
    batched.migrate_pages(lpns[:landed], 5, 0)
    batched.reinstate_pages(lpns[landed:])
    for i, lpn in enumerate(lpns[:landed].tolist()):
        replayed.remap(lpn, replayed.ppn(5, i))
    assert snapshot(batched) == snapshot(replayed)
    batched.invariant_check()


def test_drop_evacuated_unmaps_a_page_that_never_lands():
    """A lost page's unmap on an evacuated block equals the per-page
    ``unmap``; a page that did land is refused (it would be a second
    invalidation's twin)."""
    batched, replayed = victim_twins(stale={1})
    _, lpns = batched.evacuate_block(1)
    lost, rest = int(lpns[0]), lpns[1:]
    batched.drop_evacuated(lost)
    batched.migrate_pages(rest, 5, 0)
    replayed.unmap(lost)
    for i, lpn in enumerate(rest.tolist()):
        replayed.remap(lpn, replayed.ppn(5, i))
    assert snapshot(batched) == snapshot(replayed)
    batched.invariant_check()
    for lpn in (lost, int(rest[0])):
        with pytest.raises(RuntimeError, match="not evacuated"):
            batched.drop_evacuated(lpn)
