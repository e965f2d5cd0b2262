"""Tests for crash-consistent FTL recovery: the OOB sweep of a device
with no checkpoint, torn-page discard, newest-copy-wins mapping and
layout re-discovery."""

import dataclasses

import numpy as np
import pytest

from repro.ftl.mapping import TRANS_LPN_BASE, UNMAPPED
from repro.ftl.recovery import (
    RecoveryError,
    recover_ftl,
    rediscover_layout,
)
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=16)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


CONFIG = SsdConfig(geometry=GEOMETRY, timing=TIMING, op_ratio=0.25)


def make_ftl():
    return CONFIG.build_ftl(nand=NandArray(GEOMETRY, TIMING))


def crashed_copy(ftl, tear=True):
    """The media image a power cut at this instant would leave behind."""
    nand = CONFIG.restore_nand(ftl.nand.capture_durable_state())
    if tear:
        for block in (ftl.active_user_block, ftl.active_gc_block):
            if block is not None:
                nand.tear_frontier_page(block)
    return nand


# ----------------------------------------------------------------------
# The OOB sweep (no checkpoint: the whole device is the tail)
# ----------------------------------------------------------------------
def test_scan_rebuilds_map_and_charges_one_read_per_programmed_page():
    ftl = make_ftl()
    for lpn in range(10):
        ftl.host_write_page(lpn)
    nand = crashed_copy(ftl, tear=False)
    recovered, report = recover_ftl(nand, CONFIG)
    assert report.full_scan
    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )
    assert recovered._write_seq == report.write_seq == ftl._write_seq
    assert report.pages_scanned == 10
    assert report.duration_ns == 10 * TIMING.read_ns
    assert report.mapped_lpns == 10
    assert report.stale_pages == 0


def test_newest_copy_wins_over_stale_copies():
    ftl = make_ftl()
    for lpn in range(6):
        ftl.host_write_page(lpn)
    for _ in range(3):  # re-write LPN 0: two stale copies on the media
        ftl.host_write_page(0)
    nand = crashed_copy(ftl, tear=False)
    recovered, report = recover_ftl(nand, CONFIG)
    assert report.stale_pages >= 2
    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )


def test_torn_pages_are_discarded_not_mapped():
    ftl = make_ftl()
    for lpn in range(5):
        ftl.host_write_page(lpn)
    nand = crashed_copy(ftl, tear=True)
    recovered, report = recover_ftl(nand, CONFIG)
    assert report.torn_pages >= 1
    assert report.torn_addresses
    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )


def test_corrupt_oob_stamp_is_rejected():
    ftl = make_ftl()
    ftl.host_write_page(0)
    nand = crashed_copy(ftl, tear=False)
    programmed = np.flatnonzero(nand.oob_seq != -1)
    nand.oob_lpn[programmed[0]] = ftl.space.user_pages + 7
    with pytest.raises(RecoveryError):
        recover_ftl(nand, CONFIG)


@pytest.mark.parametrize(
    "mapping_mode, tvpn, message",
    [
        ("dram", 0, "keeps the full map in DRAM"),
        ("dftl", 10**6, "outside the directory"),
    ],
    ids=["dram", "dftl"],
)
def test_a_translation_stamp_the_device_cannot_hold_is_rejected(
    mapping_mode, tvpn, message
):
    nand = NandArray(GEOMETRY, TIMING)
    nand.program_page(0, 0, lpn=TRANS_LPN_BASE + tvpn, seq=0)
    config = dataclasses.replace(CONFIG, mapping_mode=mapping_mode)
    with pytest.raises(RecoveryError, match=message):
        recover_ftl(nand, config)


def test_scan_skips_bad_blocks():
    ftl = make_ftl()
    for lpn in range(4):
        ftl.host_write_page(lpn)
    nand = crashed_copy(ftl, tear=False)
    victim_block = int(ftl.page_map.lookup(0)) // GEOMETRY.pages_per_block
    nand.mark_bad(victim_block)
    recovered, _ = recover_ftl(nand, CONFIG)
    l2p = recovered.page_map.l2p_snapshot()
    in_bad = ftl.page_map.l2p_snapshot() // GEOMETRY.pages_per_block == victim_block
    assert (l2p[in_bad[: len(l2p)]] == UNMAPPED).all()


# ----------------------------------------------------------------------
# Layout re-discovery and full recovery
# ----------------------------------------------------------------------
def test_rediscover_layout_classifies_blocks():
    ftl = make_ftl()
    for lpn in range(GEOMETRY.pages_per_block + 1):
        ftl.host_write_page(lpn)
    nand = crashed_copy(ftl, tear=False)
    nand.mark_bad(GEOMETRY.total_blocks - 1)
    free, open_blocks, closed, retired = rediscover_layout(nand)
    assert len(open_blocks) >= 1
    assert len(closed)  # the filled frontier block
    assert retired == {GEOMETRY.total_blocks - 1}
    total = len(free) + len(open_blocks) + len(closed) + len(retired)
    assert total == GEOMETRY.total_blocks


def test_recover_ftl_restores_full_state_and_passes_invariants():
    ftl = make_ftl()
    for lpn in range(30):
        ftl.host_write_page(lpn)
    for lpn in range(0, 30, 2):
        ftl.host_write_page(lpn)
    while ftl.has_victim():
        ftl.collect_one_block(background=True)
    nand = crashed_copy(ftl)
    recovered, report = recover_ftl(nand, CONFIG)

    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )
    assert np.array_equal(
        recovered.page_map.valid_counts(), ftl.page_map.valid_counts()
    )
    assert recovered._write_seq == ftl._write_seq
    assert np.array_equal(recovered.nand.erase_counts, ftl.nand.erase_counts)
    assert not report.read_only
    assert report.mapped_lpns == ftl.page_map.mapped_count
    # Reads serve from the recovered mapping.
    assert recovered.host_read_page(0) > 0


@pytest.mark.parametrize("mode", ["dram", "dftl"])
def test_recovered_map_reads_the_restored_nands_stamps(mode):
    """A power-on binds the new map to the restored NAND's OOB column:
    wiping the pre-crash array's column changes nothing it reads, and
    collection off the stamps keeps working."""
    config = dataclasses.replace(CONFIG, mapping_mode=mode)
    ftl = config.build_ftl(nand=NandArray(GEOMETRY, TIMING))
    for lpn in range(30):
        ftl.host_write_page(lpn)
    for lpn in range(0, 30, 3):
        ftl.host_write_page(lpn)
    nand = crashed_copy(ftl, tear=False)
    recovered, _ = recover_ftl(nand, config)
    pm = recovered.page_map
    assert np.shares_memory(pm._stamps, nand.oob_lpn)
    ftl.nand.oob_lpn[:] = UNMAPPED
    recovered.invariant_check()
    assert [pm.lpn_of_ppn(pm.lookup(lpn)) for lpn in range(30)] == list(range(30))
    while recovered.has_victim():
        recovered.collect_one_block(background=True)
    recovered.invariant_check()
    assert np.array_equal(pm.l2p_snapshot() != UNMAPPED, np.arange(pm.user_pages) < 30)


def test_recovery_resumes_open_frontiers():
    ftl = make_ftl()
    for lpn in range(GEOMETRY.pages_per_block // 2):
        ftl.host_write_page(lpn)
    nand = crashed_copy(ftl, tear=False)
    recovered, report = recover_ftl(nand, CONFIG)
    assert report.open_blocks >= 1
    assert recovered.active_user_block is not None
    # Writing continues mid-block, right after the last surviving page.
    recovered.host_write_page(recovered.space.user_pages - 1)
    recovered.invariant_check()


def test_recovery_rejects_more_than_two_open_blocks():
    nand = NandArray(GEOMETRY, TIMING)
    for block in range(3):
        nand.program_page(block, 0, lpn=block, seq=block)
    with pytest.raises(RecoveryError):
        recover_ftl(nand, CONFIG)


def test_dftl_recovery_rejects_three_open_blocks_all_holding_data():
    # One of three open dftl blocks is the translation stream's: it holds
    # translation stamps or only torn pages, never data.
    nand = NandArray(GEOMETRY, TIMING)
    for block in range(3):
        nand.program_page(block, 0, lpn=block, seq=block)
    with pytest.raises(RecoveryError, match="all carry data stamps"):
        recover_ftl(nand, dataclasses.replace(CONFIG, mapping_mode="dftl"))


def test_recovery_carries_grown_bad_blocks_as_retired():
    ftl = make_ftl()
    for lpn in range(8):
        ftl.host_write_page(lpn)
    nand = crashed_copy(ftl)
    spare = [
        b
        for b in range(GEOMETRY.total_blocks)
        if nand.block_state(b).name == "ERASED"
    ]
    nand.mark_bad(spare[0])
    recovered, report = recover_ftl(nand, CONFIG)
    assert spare[0] in recovered.retired_blocks
    assert report.retired_blocks == 1
    assert recovered.stats.blocks_retired == 1
    assert recovered.effective_op_pages() < ftl.effective_op_pages()


def test_write_seq_monotonic_across_recovery():
    ftl = make_ftl()
    for lpn in range(12):
        ftl.host_write_page(lpn)
    nand = crashed_copy(ftl)
    recovered, _ = recover_ftl(nand, CONFIG)
    seq_before = recovered._write_seq
    recovered.host_write_page(3)
    new_ppn = recovered.page_map.lookup(3)
    assert recovered.nand.oob_seq[new_ppn] == seq_before
    # A second crash-recover sees the new write as the newest copy.
    nand2 = CONFIG.restore_nand(recovered.nand.capture_durable_state())
    again, _ = recover_ftl(nand2, CONFIG)
    assert again.page_map.lookup(3) == new_ppn
    assert again._write_seq == seq_before + 1
