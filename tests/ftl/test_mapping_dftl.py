"""Tests for the DFTL-class mapping store (repro.ftl.mapping.CachedPageMap):
GTD/translation-page bookkeeping, the LRU cached mapping table, the shared
validity plane over both page classes, and the SsdConfig seam that selects
the store per mapping mode.  The bare maps stand alone over an OOB plane
of their own, stamped before each remap as the NAND stamps a page
(``tests/ftl/stamped.py``)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftl.ftl import PageMappedFtl
from repro.ftl.mapping import (
    TRANS_LPN_BASE,
    UNMAPPED,
    CachedPageMap,
    PageMap,
    translation_layout,
)
from repro.nand.geometry import NandGeometry
from repro.ssd.config import SsdConfig
from tests.ftl.stamped import StampedCachedPageMap

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=8, blocks_per_plane=16)


def make_map(user_pages=2048, cmt=2):
    """A bare map: its translation tier is never called here, so it has
    no flash to read or program."""
    return StampedCachedPageMap(GEOMETRY, user_pages, cmt_capacity_pages=cmt)


# ----------------------------------------------------------------------
# Translation addressing and the GTD
# ----------------------------------------------------------------------
def test_translation_geometry_derives_from_page_size():
    m = make_map(user_pages=2048)
    assert m.entries_per_tpage == 4096 // 8 == 512
    assert m.trans_pages == 4  # ceil(2048 / 512)
    assert translation_layout(4096, 2048) == (512, 4)
    assert translation_layout(4096, 2049) == (512, 5)
    assert m.trans_ppn(0) is None


def test_cmt_capacity_must_be_positive():
    with pytest.raises(ValueError):
        make_map(cmt=0)


def test_remap_trans_invalidates_old_copy_and_fires_observer():
    m = make_map()
    seen = []
    m.set_valid_observer(lambda block, lpn, delta: seen.append((block, lpn, delta)))
    assert m.remap_trans(1, 10) is None
    assert m.gtd_mapped_count == 1
    assert m.trans_ppn(1) == 10
    # The encoded namespace LPN reaches the observer, so the valid-count
    # index sees translation blocks exactly like data blocks.
    assert seen == [(10 // 8, TRANS_LPN_BASE + 1, 1)]
    assert m.remap_trans(1, 20) == 10
    assert m.gtd_mapped_count == 1
    assert not m.is_valid(10) and m.is_valid(20)
    assert list(m.valid_lpns_in_block(20 // 8)) == [(20 % 8, TRANS_LPN_BASE + 1)]
    assert list(m.valid_lpns_in_block(10 // 8)) == []
    m.invariant_check()


def test_translation_pages_land_and_reinstate_through_the_gtd():
    """Evacuating a translation block, landing part of it and putting the
    rest back equals per-page ``remap_trans`` of the landed part."""
    batched, replayed = make_map(), make_map()
    for m in (batched, replayed):
        for tvpn in range(3):
            m.remap_trans(tvpn, 8 + tvpn)  # block 1, pages 0-2
    offsets, lpns = batched.evacuate_block(1)
    assert offsets.tolist() == [0, 1, 2]
    assert lpns.tolist() == [TRANS_LPN_BASE + tvpn for tvpn in range(3)]
    batched.migrate_pages(lpns[:2], 5, 0)
    batched.reinstate_pages(lpns[2:])
    for tvpn in range(2):
        replayed.remap_trans(tvpn, 40 + tvpn)
    for m in (batched, replayed):
        m.invariant_check()
    assert np.array_equal(batched.directory(), replayed.directory())
    assert np.array_equal(batched.valid_counts(), replayed.valid_counts())
    for ppn in range(GEOMETRY.total_pages):
        assert batched.lpn_of_ppn(ppn) == replayed.lpn_of_ppn(ppn)
    assert batched.gtd_mapped_count == replayed.gtd_mapped_count == 3


@pytest.mark.parametrize("data_first", [True, False])
def test_a_block_holding_both_page_classes_is_refused_before_evacuation(data_first):
    m = make_map()
    if data_first:
        m.remap(7, 8)
        m.remap_trans(0, 9)
    else:
        m.remap_trans(0, 8)
        m.remap(7, 9)
    before = (m.l2p_snapshot(), m.gtd_snapshot(), m.valid_counts().copy())
    with pytest.raises(RuntimeError, match="1 translation and some data"):
        m.evacuate_block(1)
    after = (m.l2p_snapshot(), m.gtd_snapshot(), m.valid_counts())
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    stamps = [7, TRANS_LPN_BASE] if data_first else [TRANS_LPN_BASE, 7]
    assert list(m.valid_lpns_in_block(1)) == list(enumerate(stamps))
    m.invariant_check()


def test_remap_trans_rejects_out_of_range_tvpn():
    m = make_map()
    with pytest.raises(IndexError):
        m.remap_trans(m.trans_pages, 0)


# ----------------------------------------------------------------------
# CMT: LRU order, dirty propagation, flush
# ----------------------------------------------------------------------
def test_cmt_lru_eviction_order_and_dirty_flags():
    m = make_map(cmt=2)
    hit, evicted = m.cmt_touch(0, dirty=False)
    assert (hit, evicted) == (False, [])
    hit, evicted = m.cmt_touch(1, dirty=True)
    assert (hit, evicted) == (False, [])
    # Re-touching 0 promotes it, so 1 is now the LRU victim.
    hit, evicted = m.cmt_touch(0, dirty=False)
    assert (hit, evicted) == (True, [])
    hit, evicted = m.cmt_touch(2, dirty=False)
    assert hit is False
    assert evicted == [(1, True)]  # dirty flag travels with the eviction
    assert len(m._cmt) == 2


def test_cmt_dirty_bit_is_sticky_until_flush():
    m = make_map(cmt=4)
    m.cmt_touch(3, dirty=True)
    m.cmt_touch(2, dirty=False)
    m.cmt_touch(3, dirty=False)  # a clean re-reference must not wash it
    assert list(m._cmt.items()) == [(2, False), (3, True)]
    m.checkpointed()  # a checkpoint persisted the directory
    assert list(m._cmt.items()) == [(2, False), (3, False)]  # same LRU order


# ----------------------------------------------------------------------
# Recovery install: load_mapping then load_gtd
# ----------------------------------------------------------------------
def test_load_gtd_round_trip_restores_shared_validity_plane():
    m = make_map(user_pages=1024)
    l2p = np.full(1024, UNMAPPED, dtype=np.int64)
    l2p[5] = 40
    l2p[600] = 41
    gtd = np.full(m.trans_pages, UNMAPPED, dtype=np.int64)
    gtd[0] = 80
    gtd[1] = 81
    m.oob[[40, 41, 80, 81]] = [5, 600, TRANS_LPN_BASE, TRANS_LPN_BASE + 1]
    m.load_mapping(l2p)
    m.load_gtd(gtd)
    assert m.mapped_count == 2
    assert m.gtd_mapped_count == 2
    assert np.array_equal(m.gtd_snapshot(), gtd)
    assert m.lpn_of_ppn(80) == TRANS_LPN_BASE + 0
    assert not m._cmt  # DRAM cache dies with the power cut
    m.invariant_check()


def test_load_gtd_rejects_collision_with_data_page():
    m = make_map(user_pages=1024)
    l2p = np.full(1024, UNMAPPED, dtype=np.int64)
    l2p[5] = 40
    gtd = np.full(m.trans_pages, UNMAPPED, dtype=np.int64)
    gtd[0] = 40  # same physical page as the mapped data LPN...
    m.oob[40] = TRANS_LPN_BASE  # ...which carries tvpn 0's stamp
    m.load_mapping(l2p)
    with pytest.raises(ValueError, match="collides with a mapped data page"):
        m.load_gtd(gtd)


def test_load_gtd_rejects_two_tvpns_on_one_ppn():
    """A page carries one stamp, so the stamp check rules out a second
    tvpn on it."""
    m = make_map(user_pages=2048)
    m.load_mapping(np.full(2048, UNMAPPED, dtype=np.int64))
    gtd = np.full(m.trans_pages, UNMAPPED, dtype=np.int64)
    gtd[[0, 3]] = 80
    m.oob[80] = TRANS_LPN_BASE
    with pytest.raises(
        ValueError, match="gtd entry at tvpn 3 names a page not stamped with it"
    ):
        m.load_gtd(gtd)
    with pytest.raises(ValueError, match="gtd sized 3, directory holds 4 entries"):
        m.load_gtd(gtd[:3])


@pytest.mark.parametrize("entry", [-2, -GEOMETRY.total_pages, GEOMETRY.total_pages])
def test_load_gtd_rejects_an_entry_outside_the_physical_space_untouched(entry):
    m = make_map(user_pages=1024)
    l2p = np.full(1024, UNMAPPED, dtype=np.int64)
    l2p[5] = 40
    m.oob[40] = 5
    m.load_mapping(l2p)
    before = (m._valid.copy(), m.valid_counts().copy())
    gtd = np.full(m.trans_pages, UNMAPPED, dtype=np.int64)
    gtd[0] = entry
    with pytest.raises(ValueError, match="gtd entry outside the physical space"):
        m.load_gtd(gtd)
    assert m.gtd_mapped_count == 0
    assert np.array_equal(m.gtd_snapshot(), np.full(m.trans_pages, UNMAPPED))
    assert np.array_equal(m._valid, before[0])
    assert np.array_equal(m.valid_counts(), before[1])
    m.invariant_check()


@pytest.mark.parametrize(
    "stamp", [UNMAPPED, 7, TRANS_LPN_BASE + 1], ids=["unstamped", "data", "other-tvpn"]
)
def test_load_gtd_refuses_a_page_without_its_tvpn_stamp(stamp):
    """Entry 2 names page 81: torn (never stamped), holding a data page,
    or another translation page's copy.  Nothing is installed."""
    m = make_map(user_pages=2048)
    m.load_mapping(np.full(2048, UNMAPPED, dtype=np.int64))
    gtd = np.full(m.trans_pages, UNMAPPED, dtype=np.int64)
    gtd[[0, 2]] = [80, 81]
    m.oob[[80, 81]] = [TRANS_LPN_BASE, stamp]
    with pytest.raises(
        ValueError, match="gtd entry at tvpn 2 names a page not stamped with it"
    ):
        m.load_gtd(gtd)
    assert m.gtd_mapped_count == 0
    assert np.array_equal(m.gtd_snapshot(), np.full(m.trans_pages, UNMAPPED))
    assert not m._valid.any() and not m.valid_counts().any()
    m.oob[81] = TRANS_LPN_BASE + 2
    m.load_gtd(gtd)
    assert m.gtd_mapped_count == 2
    m.invariant_check()


def test_load_mapping_rejects_a_negative_entry_in_dftl_mode():
    m = make_map(user_pages=1024)
    l2p = np.full(1024, UNMAPPED, dtype=np.int64)
    l2p[[3, 5]] = [-2, 40]
    with pytest.raises(ValueError, match="l2p entry outside the physical space"):
        m.load_mapping(l2p)
    assert m.mapped_count == 0 and not m._valid.any()
    m.invariant_check()


@pytest.mark.parametrize("table", ["l2p", "gtd"])
def test_invariant_check_flags_an_entry_outside_the_physical_space(table):
    m = make_map(user_pages=1024)
    m.remap(5, 40)
    m.remap_trans(0, 41)
    m.invariant_check()
    if table == "l2p":
        m._l2p[5] = -2
        expected = "l2p entry outside the physical space at LPN 5"
    else:
        m._gtd[0] = GEOMETRY.total_pages
        expected = "gtd entry outside the physical space at tvpn 0"
    with pytest.raises(AssertionError) as raised:
        m.invariant_check()
    assert str(raised.value) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bulk_install_equals_replaying_one_entry_at_a_time(data):
    """``load_mapping`` + ``load_gtd`` over a random injective partial map
    leave the page map exactly where per-entry ``remap`` / ``remap_trans``
    calls do -- the LPN each valid page reads back, the validity plane,
    the per-block counters and both populations."""
    user_pages = 1024
    trans_pages = make_map(user_pages).trans_pages
    n_data = data.draw(st.integers(0, 100))
    n_trans = data.draw(st.integers(0, trans_pages))
    ppns = data.draw(
        st.lists(
            st.integers(0, GEOMETRY.total_pages - 1),
            min_size=n_data + n_trans,
            max_size=n_data + n_trans,
            unique=True,
        )
    )
    lpns = data.draw(
        st.lists(
            st.integers(0, user_pages - 1),
            min_size=n_data,
            max_size=n_data,
            unique=True,
        )
    )
    tvpns = data.draw(
        st.lists(
            st.integers(0, trans_pages - 1),
            min_size=n_trans,
            max_size=n_trans,
            unique=True,
        )
    )
    l2p = np.full(user_pages, UNMAPPED, dtype=np.int64)
    l2p[lpns] = ppns[:n_data]
    gtd = np.full(trans_pages, UNMAPPED, dtype=np.int64)
    gtd[tvpns] = ppns[n_data:]

    bulk = make_map(user_pages)
    bulk.remap(7, 0)  # stale state the install must replace
    bulk.oob[ppns[:n_data]] = lpns  # the recovered image's stamps
    bulk.oob[ppns[n_data:]] = TRANS_LPN_BASE + np.asarray(tvpns, dtype=np.int64)
    bulk.load_mapping(l2p)
    bulk.load_gtd(gtd)

    replayed = make_map(user_pages)
    for lpn, ppn in zip(lpns, ppns[:n_data]):
        replayed.remap(lpn, ppn)
    for tvpn, ppn in zip(tvpns, ppns[n_data:]):
        replayed.remap_trans(tvpn, ppn)

    pages = range(GEOMETRY.total_pages)
    assert [bulk.lpn_of_ppn(p) for p in pages] == [replayed.lpn_of_ppn(p) for p in pages]
    assert np.array_equal(bulk._valid, replayed._valid)
    assert np.array_equal(bulk.valid_counts(), replayed.valid_counts())
    assert np.array_equal(bulk.l2p_snapshot(), replayed.l2p_snapshot())
    assert np.array_equal(bulk.gtd_snapshot(), replayed.gtd_snapshot())
    assert bulk.mapped_count == replayed.mapped_count == n_data
    assert bulk.gtd_mapped_count == replayed.gtd_mapped_count == n_trans
    bulk.invariant_check()


def test_invariant_check_catches_gtd_desync():
    m = make_map()
    m.remap_trans(0, 16)
    m.gtd_mapped_count = 2  # tamper
    with pytest.raises(AssertionError):
        m.invariant_check()


# ----------------------------------------------------------------------
# The SsdConfig seam
# ----------------------------------------------------------------------
def test_default_mapping_mode_builds_plain_page_map():
    ftl = SsdConfig.small(blocks=32).build_ftl()
    assert type(ftl.page_map) is PageMap
    assert ftl.config.mapping_mode == "dram"
    assert ftl.translation_write_overhead() == 0.0


def test_dftl_mode_builds_cached_map_with_budgeted_capacity():
    cfg = SsdConfig.small(
        blocks=32, mapping_mode="dftl", cmt_budget_bytes=2 * 4096
    )
    ftl = cfg.build_ftl()
    assert isinstance(ftl.page_map, CachedPageMap)
    assert ftl.page_map.cmt_capacity_pages == 2  # budget // page_size
    assert [f.name for f in ftl.frontiers] == ["user", "gc", "trans"]


def test_dftl_default_budget_is_one_64th_of_full_map():
    # Large enough that the budget spans several translation pages, so
    # the 1/64 is what sets the capacity, not the one-page floor.
    cfg = SsdConfig.small(blocks=2048, mapping_mode="dftl")
    ftl = cfg.build_ftl()
    budget = ftl.space.user_pages * 8 // 64
    assert ftl.page_map.cmt_capacity_pages == budget // 4096 > 1


@pytest.mark.parametrize("mode", ["dram", "dftl"])
def test_no_map_holds_a_device_sized_int64_array_of_its_own(mode):
    """The reverse map is the NAND's OOB column: the only int64 array of
    ``total_pages`` entries a map holds is its read-only view of it."""
    ftl = SsdConfig.small(blocks=64, mapping_mode=mode).build_ftl()
    total = ftl.geometry.total_pages
    assert ftl.space.user_pages != total
    sized = [
        (name, value)
        for name, value in vars(ftl.page_map).items()
        if isinstance(value, np.ndarray) and value.dtype == np.int64 and value.size == total
    ]
    assert [name for name, _ in sized] == ["_stamps"]
    view = sized[0][1]
    assert np.shares_memory(view, ftl.nand.oob_lpn) and not view.flags.writeable


def test_config_rejects_unknown_mapping_mode():
    with pytest.raises(ValueError):
        SsdConfig.small(blocks=32, mapping_mode="hybrid")


# ----------------------------------------------------------------------
# FTL-level equivalence across the MappingStore seam
# ----------------------------------------------------------------------
def test_dram_and_dftl_agree_on_logical_state():
    """Same host writes -> same logical mapping, whatever the store.

    Physical placement differs (dftl interleaves translation programs),
    but the host-visible state -- which LPNs are mapped -- must match,
    and both images must hold their invariants."""
    # Span several translation pages (512 entries each) with a
    # one-entry CMT so misses and dirty evictions actually happen.
    writes = [(i * 7) % 1500 for i in range(4000)]
    ftls = {}
    for mode in ("dram", "dftl"):
        cfg = SsdConfig.small(
            blocks=64, pages_per_block=32, mapping_mode=mode,
            cmt_budget_bytes=4096,
        )
        ftl = cfg.build_ftl(seed=3)
        for lpn in writes:
            ftl.host_write_page(lpn)
        ftl.invariant_check()
        ftls[mode] = ftl
    dram, dftl = ftls["dram"], ftls["dftl"]
    assert dram.page_map.mapped_count == dftl.page_map.mapped_count
    assert np.array_equal(
        dram.page_map.l2p_snapshot() != UNMAPPED,
        dftl.page_map.l2p_snapshot() != UNMAPPED,
    )
    # The dftl run priced real translation traffic.
    assert dftl.stats.trans_pages_written > 0
    assert dftl.stats.cmt_hits + dftl.stats.cmt_misses > 0
    assert dftl.stats.waf() > dram.stats.waf()
    assert dram.stats.trans_pages_written == 0


def test_dftl_gc_migrates_translation_blocks():
    cfg = SsdConfig.small(
        blocks=64, pages_per_block=32, mapping_mode="dftl",
        cmt_budget_bytes=4096,
    )
    ftl = cfg.build_ftl(seed=5)
    user = ftl.space.user_pages
    # Random overwrites leave data blocks partially valid, so the greedy
    # victim index reaches mostly-stale translation blocks too.
    rng = random.Random(0)
    for _ in range(user * 3):
        ftl.host_write_page(rng.randrange(user * 9 // 10))
    ftl.invariant_check()
    assert ftl.stats.trans_pages_migrated > 0
    assert isinstance(ftl, PageMappedFtl)
