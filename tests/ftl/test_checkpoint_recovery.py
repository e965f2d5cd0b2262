"""Tests for checkpoint-bounded recovery and the durable unmap journal.

The other recovery suites cover the full OOB scan; here the device runs
with periodic mapping checkpoints and journaled TRIMs, and recovery must
(a) reconstruct the same state from the checkpoint + log tail that the
full scan reaches, for a fraction of the read cost, (b) never resurrect
a TRIMmed page whose tombstone was durable, and (c) survive power cuts
aimed at the metadata itself -- torn checkpoints, torn journal records,
and cuts during a previous recovery's own checkpoint write.
"""

import dataclasses
import gc
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from repro.experiments.crashsweep import verify_crash_point
from repro.faults.powerloss import PowerLossEmulator
from repro.ftl.metastore import parse_checkpoint
from repro.ftl.recovery import recover_ftl
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=8, blocks_per_plane=24)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)
#: The device with default knobs (no checkpointing): what every recovery
#: below powers on as, whatever the crashed device was configured with.
CONFIG = SsdConfig(geometry=GEOMETRY, timing=TIMING, op_ratio=0.25)


def make_ftl(checkpoint_interval=32):
    config = dataclasses.replace(
        CONFIG, checkpoint_interval_pages=checkpoint_interval
    )
    ftl = config.build_ftl(nand=NandArray(GEOMETRY, TIMING))
    return ftl, ftl.space


def churn(ftl, space, writes=260, seed=4, trim_every=0):
    """Skewed overwrites (forces GC and checkpoints); optional TRIMs."""
    rng = np.random.default_rng(seed)
    hot = max(1, space.user_pages // 3)
    for op in range(writes):
        lpn = int(rng.integers(0, hot if rng.random() < 0.7 else space.user_pages))
        ftl.host_write_page(lpn)
        if trim_every and op % trim_every == trim_every - 1:
            ftl.trim([int(rng.integers(0, space.user_pages))])
    return rng


def crash(ftl):
    """Power-cut image: durable state only, frontier pages torn."""
    crashed = CONFIG.restore_nand(ftl.nand.capture_durable_state())
    for block in (ftl.active_user_block, ftl.active_gc_block):
        if block is not None:
            crashed.tear_frontier_page(block)
    return crashed


def recover(image, **kwargs):
    nand = CONFIG.restore_nand(image.capture_durable_state())
    return recover_ftl(nand, CONFIG, **kwargs)


# ----------------------------------------------------------------------
# Checkpointed recovery vs the full scan
# ----------------------------------------------------------------------
def test_tail_scan_equals_full_scan_for_less_reading():
    # No TRIMs here: stripping the metadata region also strips the unmap
    # journal, so a trimmed run's full scan would (correctly) resurrect
    # -- the TRIM suites below cover that.  This test isolates the
    # checkpoint's job: same mapping, far cheaper power-on.
    ftl, space = make_ftl()
    churn(ftl, space)
    image = crash(ftl)

    tail_ftl, tail = recover(image)
    assert not tail.full_scan
    assert tail.checkpoint_generation == ftl._ckpt_generation
    assert tail.meta_pages_read > 0

    # Drop the records; the reserved blocks keep their wear.
    bare = CONFIG.restore_nand(image.capture_durable_state().without_records())
    full_ftl, full = recover_ftl(bare, CONFIG)
    assert full.full_scan

    assert np.array_equal(
        tail_ftl.page_map.l2p_snapshot(), full_ftl.page_map.l2p_snapshot()
    )
    assert tail_ftl._write_seq == full_ftl._write_seq == ftl._write_seq
    # ...and the checkpoint bounds the sweep: far fewer OOB reads, and a
    # strictly cheaper simulated power-on.
    assert tail.pages_scanned < full.pages_scanned
    assert tail.duration_ns < full.duration_ns
    tail_ftl.invariant_check()


def test_recovered_ftl_matches_live_reference():
    ftl, space = make_ftl()
    churn(ftl, space, trim_every=7)
    recovered, report = recover(crash(ftl))
    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )
    assert np.array_equal(recovered.page_map.valid_counts(), ftl.page_map.valid_counts())
    assert np.array_equal(recovered.nand.erase_counts, ftl.nand.erase_counts)
    assert recovered._ckpt_generation == ftl._ckpt_generation


def test_recovery_without_checkpoints_still_replays_tombstones():
    ftl, space = make_ftl(checkpoint_interval=None)
    churn(ftl, space, writes=150)
    victim = 2
    ftl.host_write_page(victim)
    ftl.trim([victim])
    recovered, report = recover(crash(ftl))
    assert report.full_scan
    assert report.tombstones_replayed >= 1
    assert recovered.page_map.lookup(victim) is None


# ----------------------------------------------------------------------
# TRIM durability
# ----------------------------------------------------------------------
def test_trim_survives_power_loss():
    ftl, space = make_ftl()
    churn(ftl, space)
    victims = [0, 5, 11]
    for lpn in victims:
        ftl.host_write_page(lpn)
    assert ftl.trim(victims) > 0  # journaling is a real program, with latency
    recovered, report = recover(crash(ftl))
    for lpn in victims:
        assert recovered.page_map.lookup(lpn) is None
    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )


def test_trim_then_rewrite_keeps_the_newer_copy():
    ftl, space = make_ftl()
    churn(ftl, space)
    ftl.trim([3])
    ftl.host_write_page(3)  # re-written after the discard: stamp > tombstone
    recovered, _ = recover(crash(ftl))
    assert recovered.page_map.lookup(3) == ftl.page_map.lookup(3) is not None


# ----------------------------------------------------------------------
# Torn metadata: fallback chain and re-entrant recovery
# ----------------------------------------------------------------------
def test_torn_checkpoint_falls_back_to_previous_generation():
    ftl, space = make_ftl()
    churn(ftl, space)
    ftl.write_checkpoint()
    image = crash(ftl)
    image.meta.tear_last()
    recovered, report = recover(image)
    assert report.torn_meta_records == 1
    assert report.checkpoint_fallbacks == 1
    assert not report.full_scan
    assert report.checkpoint_generation < ftl._ckpt_generation
    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )
    # The next generation supersedes every torn one.
    assert recovered._ckpt_generation == ftl._ckpt_generation
    recovered.write_checkpoint()
    assert recovered._ckpt_generation == ftl._ckpt_generation + 1


def test_all_checkpoints_torn_falls_back_to_full_scan():
    ftl, space = make_ftl(checkpoint_interval=None)
    churn(ftl, space, writes=120)
    ftl.write_checkpoint()
    image = crash(ftl)
    image.meta.tear_last()
    recovered, report = recover(image)
    assert report.full_scan and report.checkpoint_fallbacks == 1
    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )


def test_torn_newest_tombstone_is_an_undurable_trim():
    # A TRIM whose journal record tore was never acknowledged as durable
    # -- recovery keeping the page mapped is correct, and the rest of
    # the image must still recover exactly.
    ftl, space = make_ftl()
    churn(ftl, space)
    ftl.host_write_page(9)
    expected = ftl.page_map.l2p_snapshot().copy()  # before the doomed TRIM
    ftl.trim([9])
    image = crash(ftl)
    assert image.meta.records[-1].kind == "unmap"
    image.meta.tear_last(keep_pages=0)
    recovered, report = recover(image)
    assert report.torn_meta_records == 1
    assert recovered.page_map.lookup(9) is not None
    assert np.array_equal(recovered.page_map.l2p_snapshot(), expected)


def test_post_checkpoint_recovery_is_reentrant():
    # Crash -> recover (writing the post-recovery checkpoint) -> crash
    # again mid-checkpoint-program -> recover again.  The second power-on
    # must tear past the half-written checkpoint and still reach the
    # same state.
    config = SsdConfig(
        geometry=GEOMETRY,
        timing=TIMING,
        op_ratio=0.25,
        checkpoint_interval_pages=32,
    )
    ftl = config.build_ftl(seed=1)
    space = ftl.space
    churn(ftl, space, trim_every=8)
    first_durable = crash(ftl).capture_durable_state()

    first, first_report = config.recover_from(first_durable, post_checkpoint=True)
    assert first_report.post_checkpoint_ns > 0
    cut = PowerLossEmulator().cut_recovery(first.nand, tear_checkpoint=True)
    second_durable = cut.durable
    assert second_durable.meta.records[-1].torn

    final, report = config.recover_from(second_durable)
    assert report.torn_meta_records >= 1
    assert report.checkpoint_fallbacks >= 1
    assert np.array_equal(
        final.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )
    final.invariant_check()


def test_a_torn_first_checkpoint_keeps_the_unmap_journal():
    # With no checkpoint yet, the post-recovery checkpoint is the only
    # complete one when the log compacts -- and it can still tear.  The
    # tombstones below its horizon must survive until an older complete
    # checkpoint covers them, or the next power-on resurrects the TRIMs.
    ftl, space = make_ftl(checkpoint_interval=None)
    churn(ftl, space, trim_every=5)
    first, first_report = recover(crash(ftl), post_checkpoint=True)
    assert first_report.full_scan and first_report.tombstones_replayed > 0
    PowerLossEmulator().cut_recovery(first.nand, tear_checkpoint=True)
    final, report = recover(first.nand)
    assert report.full_scan and report.checkpoint_fallbacks == 1
    assert np.array_equal(
        final.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )


def test_post_checkpoint_cost_is_separate_from_power_on_ready():
    ftl, space = make_ftl()
    churn(ftl, space)
    image = crash(ftl)
    plain_ftl, plain = recover(image)
    ckpt_ftl, ckpt = recover(image, post_checkpoint=True)
    assert plain.post_checkpoint_ns == 0
    assert ckpt.post_checkpoint_ns > 0
    # Same host-ready latency either way: the checkpoint is written
    # after the drive comes up, not on the critical path.
    assert ckpt.duration_ns == plain.duration_ns
    assert ckpt_ftl._ckpt_generation == plain_ftl._ckpt_generation + 1


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def test_checkpoint_and_journal_stats():
    ftl, space = make_ftl(checkpoint_interval=16)
    churn(ftl, space, writes=100, trim_every=10)
    assert ftl.stats.checkpoints_written >= 3
    assert ftl.stats.tombstones_journaled == ftl.stats.pages_trimmed > 0
    assert ftl.stats.meta_pages_written >= ftl.stats.checkpoints_written
    # Compaction keeps the on-NAND region bounded: far fewer pages held
    # than were ever written.
    assert ftl.nand.meta.pages_held() < ftl.stats.meta_pages_written


def test_interval_must_be_positive():
    with pytest.raises(ValueError, match="checkpoint_interval_pages must be >= 1"):
        dataclasses.replace(CONFIG, checkpoint_interval_pages=0)


# ----------------------------------------------------------------------
# Host cost of one power-on (deterministic: bytes and calls, no timing)
# ----------------------------------------------------------------------
def _big_checkpointed_image():
    """A 4096x64 device, 6 % mapped, checkpointed, then one block of tail."""
    geometry = NandGeometry(page_size=4096, pages_per_block=64, blocks_per_plane=4096)
    config = SsdConfig(geometry=geometry, timing=TIMING)
    ftl = config.build_ftl(nand=NandArray(geometry, TIMING))
    for first in range(0, ftl.space.user_pages * 6 // 100, 64):
        ftl.host_write_extent(first, 64)
    ftl.trim(range(0, 640, 5))
    ftl.write_checkpoint()
    ftl.host_write_extent(7, 40)
    for lpn in (3, 4, 6):
        ftl.trim([lpn])  # one journal record each
    return config, ftl, ftl.nand.capture_durable_state()


def test_checkpointed_power_on_allocates_by_the_tail_not_by_the_device():
    """The rebuild's working memory is the FTL it builds (L2P + reverse
    map + validity plane, 2.2x the L2P's bytes), one working copy of the
    L2P, and temporaries sized by the tail and the mapped population --
    nothing ``total_pages`` long."""
    config, ftl, durable = _big_checkpointed_image()
    nand = config.restore_nand(durable)
    tracemalloc.start()
    try:
        recovered, report = recover_ftl(nand, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.full_scan and report.pages_scanned == 40
    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )
    assert peak < 4 * ftl.space.user_pages * 8


def test_second_power_on_over_the_same_records_checks_no_crc(monkeypatch):
    config, _, durable = _big_checkpointed_image()
    calls = []
    real_crc32 = zlib.crc32

    def counting_crc32(data, *args):
        calls.append(len(data))
        return real_crc32(data, *args)

    twin = durable.copy()  # powering on spends an image; the twin shares its records
    monkeypatch.setattr(zlib, "crc32", counting_crc32)
    _, first = recover_ftl(config.restore_nand(durable), config)
    # Each journal record once; the live log's own compaction had already
    # parsed the checkpoint record, and the image shares that record.
    # The pre-checkpoint TRIM record survives: a lone checkpoint may still
    # tear, so it covers nothing yet.
    journal = [record for record in durable.meta.records if record.kind == "unmap"]
    assert len(journal) == 4
    assert calls == [len(record.payload) - 4 for record in journal]
    del calls[:]
    _, second = recover_ftl(config.restore_nand(twin), config)
    assert calls == []
    assert second == first


def test_one_checkpoint_write_crcs_its_payload_once(monkeypatch):
    """The CRC is computed over the payload's bytes at build, and the
    log's compaction reuses that build's parse instead of checking it
    again (it used to read the whole table through ``zlib.crc32`` twice)."""
    _, ftl, _ = _big_checkpointed_image()
    for record in ftl.nand.meta.records:
        assert record.parsed is not None  # every held record already parsed
    crc_bytes = []
    real_crc32 = zlib.crc32

    def counting_crc32(data, *args):
        crc_bytes.append(memoryview(data).nbytes)
        return real_crc32(data, *args)

    monkeypatch.setattr(zlib, "crc32", counting_crc32)
    ftl.write_checkpoint()
    newest = ftl.nand.meta.records[-1]
    assert newest.kind == "checkpoint"
    assert sum(crc_bytes) == len(newest.payload) - 4
    monkeypatch.undo()
    # The reused parse is the one a CRC-checked parse of the bytes gives.
    checked = parse_checkpoint(newest.payload)
    assert checked is not None and newest.parsed.write_seq == checked.write_seq
    assert np.array_equal(newest.parsed.l2p, ftl.page_map.l2p_snapshot())
    assert np.array_equal(checked.l2p, newest.parsed.l2p)


def test_nested_crash_point_peaks_below_nine_l2ps():
    """A nested crash point peaks while it captures the first recovered
    device for the second power-on: that device, its new checkpoint
    record and the capture, 7.9x the L2P's bytes.  The first device is
    freed before the second is built, and the check battery allocates
    nothing ``user_pages`` long (it compares views and diffs the OOB
    columns whole).  Both devices at once, plus the battery's L2P copies
    and per-LPN gathers, used to put the point at 13.2x."""
    config, ftl, _ = _big_checkpointed_image()
    tracemalloc.start()
    try:
        report = verify_crash_point(ftl, config, nested=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.full_scan
    assert peak < 9 * ftl.space.user_pages * 8


def freed_without_a_gc_pass(build):
    """Whether the FTL ``build()`` returns, and its page map, are freed
    the moment the last reference goes, with the cyclic collector off."""
    gc.disable()
    try:
        ftl = build()
        refs = weakref.ref(ftl), weakref.ref(ftl.page_map)
        del ftl
        return [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_dropped_recovered_ftl_is_freed_without_a_gc_pass():
    """No reference cycle holds a recovered FTL, and with it its device-
    sized arrays, until the next cyclic collection: a crash sweep drops
    one or two of them at every point."""
    ftl, space = make_ftl()
    churn(ftl, space)
    image = crash(ftl)
    assert freed_without_a_gc_pass(lambda: recover(image)[0])


#: A flash-resident map of 16-entry translation pages whose one-page CMT
#: writes back on most touches.
SMALL_PAGES = dataclasses.replace(GEOMETRY, page_size=128)
DFTL = dataclasses.replace(
    CONFIG, geometry=SMALL_PAGES, mapping_mode="dftl", cmt_budget_bytes=128
)


@pytest.mark.parametrize("origin", ["fresh", "recovered"])
def test_a_dropped_dftl_ftl_is_freed_without_a_gc_pass(origin):
    """The flash-resident map asks its FTL for translation programs
    through a callback; that callback must not close a cycle between the
    two, whether the FTL was built fresh or powered on from an image."""

    def build():
        ftl = DFTL.build_ftl(nand=NandArray(SMALL_PAGES, TIMING))
        churn(ftl, ftl.space)
        if origin == "recovered":
            image = DFTL.restore_nand(ftl.nand.capture_durable_state())
            ftl = recover_ftl(image, DFTL)[0]
            churn(ftl, ftl.space, writes=40)
        assert ftl.stats.trans_pages_written > 0  # the callback ran
        return ftl

    assert freed_without_a_gc_pass(build)
