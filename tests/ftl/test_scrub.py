"""Tests for the refresh scrubber and the FTL's ECC ladder read path.

Exercises :class:`~repro.ftl.scrub.RefreshScrubber` victim nomination
(scan cursor, at-risk queue, re-validation), the FTL's
:meth:`maybe_scrub` relocation accounting, and the ladder counters the
read path maintains (fast/retry/soft/UECC plus the retry-level
histogram).  All retention math runs at ``retention_accel=1e9`` so one
simulated nanosecond is one modelled second -- thresholds are crossed by
moving a test clock, not by running long simulations.
"""

import dataclasses

import pytest

from repro.ftl.ftl import PageMappedFtl
from repro.ftl.scrub import RefreshScrubber
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.reliability import (
    RELIABILITY_PROFILES,
    BitErrorModel,
    ReadDisturbTracker,
    ReliabilityProfile,
)
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=16)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)

# One simulated ns == one modelled second; pe=0 rber = 1e-4 * (1 + R/5000).
PROFILE = ReliabilityProfile(
    name="test-accel",
    bit_error_model=BitErrorModel(base_rber=1e-4, retention_scale_s=5_000.0),
    retention_threshold_s=100_000.0,
    disturb_threshold=1_000,
    scrub_scan_blocks=GEOMETRY.total_blocks,
    retention_accel=1e9,
)


class _Clock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def make_rel_ftl(profile=PROFILE, op_ratio=0.25, watermark=2):
    clock = _Clock()
    tracker = ReadDisturbTracker(
        GEOMETRY.total_blocks, scrub_threshold=profile.disturb_threshold
    )
    nand = NandArray(GEOMETRY, TIMING, read_disturb=tracker)
    config = SsdConfig(
        geometry=GEOMETRY,
        timing=TIMING,
        op_ratio=op_ratio,
        fgc_watermark=watermark,
        reliability=profile,
    )
    ftl = PageMappedFtl(nand, config, clock=clock)
    return ftl, clock


def close_first_blocks(ftl, lpns):
    """Write distinct LPNs so at least one block fills and closes."""
    for lpn in lpns:
        ftl.host_write_page(lpn)


# ----------------------------------------------------------------------
# RefreshScrubber nomination
# ----------------------------------------------------------------------
def test_open_blocks_are_never_at_risk():
    ftl, clock = make_rel_ftl()
    scrubber = RefreshScrubber(PROFILE)
    ftl.host_write_page(0)  # active frontier block: open, not closed
    clock.now = 10**9
    for block in range(GEOMETRY.total_blocks):
        if not ftl._closed[block]:
            assert not scrubber.block_at_risk(ftl, block, clock.now)


def test_aged_closed_block_is_at_risk():
    ftl, clock = make_rel_ftl()
    scrubber = RefreshScrubber(PROFILE)
    close_first_blocks(ftl, range(GEOMETRY.pages_per_block + 1))
    closed = [b for b in range(GEOMETRY.total_blocks) if ftl._closed[b]]
    assert closed
    block = closed[0]
    # Young: below the 100k-second threshold.
    clock.now = 50_000
    assert not scrubber.block_at_risk(ftl, block, clock.now)
    clock.now = 150_000
    assert scrubber.block_at_risk(ftl, block, clock.now)


def test_disturb_threshold_marks_block_at_risk():
    ftl, clock = make_rel_ftl()
    scrubber = RefreshScrubber(PROFILE)
    close_first_blocks(ftl, range(GEOMETRY.pages_per_block + 1))
    block = next(b for b in range(GEOMETRY.total_blocks) if ftl._closed[b])
    assert not scrubber.block_at_risk(ftl, block, clock.now)
    ftl.nand.read_disturb.read_counts[block] = PROFILE.disturb_threshold
    assert scrubber.block_at_risk(ftl, block, clock.now)


def test_next_victim_scans_and_queues_extras():
    ftl, clock = make_rel_ftl()
    scrubber = RefreshScrubber(PROFILE)
    # Close two blocks, then age both past the threshold.
    close_first_blocks(ftl, range(2 * GEOMETRY.pages_per_block + 1))
    closed = [b for b in range(GEOMETRY.total_blocks) if ftl._closed[b]]
    assert len(closed) >= 2
    clock.now = 150_000
    first = scrubber.next_victim(ftl, clock.now)
    assert first in closed
    # The sweep found the rest in the same pass and queued them.
    assert scrubber.pending() >= 1
    second = scrubber.next_victim(ftl, clock.now)
    assert second in closed and second != first


def test_queue_revalidates_stale_entries():
    ftl, clock = make_rel_ftl()
    scrubber = RefreshScrubber(PROFILE)
    close_first_blocks(ftl, range(2 * GEOMETRY.pages_per_block + 1))
    clock.now = 150_000
    scrubber.next_victim(ftl, clock.now)
    assert scrubber.pending() >= 1
    # Re-base every closed block's clock: the queued entries go stale.
    ftl.nand.last_program_ns[:] = clock.now
    assert scrubber.next_victim(ftl, clock.now) is None
    assert scrubber.pending() == 0


def test_no_victim_when_nothing_at_risk():
    ftl, clock = make_rel_ftl()
    scrubber = RefreshScrubber(PROFILE)
    close_first_blocks(ftl, range(GEOMETRY.pages_per_block + 1))
    clock.now = 10_000  # young data
    assert scrubber.next_victim(ftl, clock.now) is None


# ----------------------------------------------------------------------
# FTL maybe_scrub relocation
# ----------------------------------------------------------------------
def test_maybe_scrub_refreshes_aged_block_and_charges_stats():
    ftl, clock = make_rel_ftl()
    lpns = list(range(2 * GEOMETRY.pages_per_block))
    close_first_blocks(ftl, lpns)
    clock.now = 150_000

    latency = ftl.maybe_scrub()
    assert latency > 0
    assert ftl.stats.scrub_blocks_refreshed == 1
    assert ftl.stats.scrub_pages_migrated > 0
    # Refresh migrations are GC work: charged into the same counters.
    assert ftl.stats.gc_pages_migrated >= ftl.stats.scrub_pages_migrated
    # The data survived the relocation.
    for lpn in lpns:
        assert ftl.host_read_page(lpn) > 0
    ftl.invariant_check()


def test_maybe_scrub_noop_when_nothing_at_risk():
    ftl, clock = make_rel_ftl()
    close_first_blocks(ftl, range(GEOMETRY.pages_per_block + 1))
    clock.now = 10_000
    assert ftl.maybe_scrub() == 0
    assert ftl.stats.scrub_blocks_refreshed == 0


def test_maybe_scrub_noop_without_scrubber():
    no_scrub = dataclasses.replace(PROFILE, scrub=False)
    ftl, clock = make_rel_ftl(profile=no_scrub)
    close_first_blocks(ftl, range(GEOMETRY.pages_per_block + 1))
    clock.now = 150_000
    assert ftl.maybe_scrub() == 0


def test_refresh_rebases_clock_and_disturb_counter():
    ftl, clock = make_rel_ftl()
    close_first_blocks(ftl, range(2 * GEOMETRY.pages_per_block))
    victim = next(b for b in range(GEOMETRY.total_blocks) if ftl._closed[b])
    ftl.nand.read_disturb.read_counts[victim] = PROFILE.disturb_threshold + 5
    clock.now = 150_000

    assert ftl.maybe_scrub() > 0
    # The victim was erased: clock re-based to now, counter reset.
    assert int(ftl.nand.last_program_ns[victim]) == clock.now
    assert int(ftl.nand.read_disturb.read_counts[victim]) == 0


def test_scrub_write_overhead_tracks_migrated_share():
    ftl, clock = make_rel_ftl()
    assert ftl.scrub_write_overhead() == 0.0  # no host writes yet
    close_first_blocks(ftl, range(2 * GEOMETRY.pages_per_block))
    assert ftl.scrub_write_overhead() == 0.0  # no scrub work yet
    clock.now = 150_000
    ftl.maybe_scrub()
    expected = ftl.stats.scrub_pages_migrated / ftl.stats.host_pages_written
    assert ftl.scrub_write_overhead() == pytest.approx(expected)
    assert ftl.scrub_write_overhead() > 0.0


# ----------------------------------------------------------------------
# Ladder counters on the host read path
# ----------------------------------------------------------------------
def test_fast_reads_counted_and_free():
    ftl, clock = make_rel_ftl()
    ftl.host_write_page(0)
    base = ftl.host_read_page(0)
    assert base == TIMING.read_ns + TIMING.transfer_ns_per_page
    assert ftl.stats.ecc_fast_reads == 1
    assert ftl.stats.ecc_retry_reads == 0
    assert ftl.media.ecc_retry_histogram == {}


def test_retry_read_pays_ladder_latency_and_fills_histogram():
    ftl, clock = make_rel_ftl()
    ftl.host_write_page(0)
    # rber(R=150_000) = 3.1e-3: past the fast and L1/L2 ceilings, inside
    # L3 (3.487e-3) -- a level-3 hard re-read.
    clock.now = 150_000
    latency = ftl.host_read_page(0)
    assert ftl.stats.ecc_retry_reads == 1
    assert ftl.stats.uecc_count == 0
    assert ftl.media.ecc_retry_histogram == {3: 1}
    expected_extra = sum(PROFILE.retry_latency_ns)
    assert latency == TIMING.read_ns + TIMING.transfer_ns_per_page + expected_extra


def test_soft_decode_counted():
    ftl, clock = make_rel_ftl()
    ftl.host_write_page(0)
    # rber(R=500_000) = 1.01e-2: only soft decode covers it.
    clock.now = 500_000
    ftl.host_read_page(0)
    assert ftl.stats.ecc_soft_decodes == 1
    assert ftl.stats.uecc_count == 0


def test_uecc_counts_and_read_still_returns():
    ftl, clock = make_rel_ftl()
    ftl.host_write_page(0)
    # rber(R=2_000_000) = 4.01e-2: beyond the whole ladder -- data lost.
    clock.now = 2_000_000
    latency = ftl.host_read_page(0)
    assert latency > 0  # the failed ladder walk is still paid for
    assert ftl.stats.uecc_count == 1
    assert ftl.stats.uncorrectable_reads >= 1


def test_accel_preset_is_quiescent_when_fresh():
    """mlc-20nm-accel only degrades with age: fresh reads stay fast."""
    ftl, clock = make_rel_ftl(profile=RELIABILITY_PROFILES["mlc-20nm-accel"])
    ftl.host_write_page(0)
    ftl.host_read_page(0)
    assert ftl.stats.ecc_fast_reads == 1
    assert ftl.stats.ecc_retry_reads == 0
    assert ftl.stats.uecc_count == 0


def test_ladder_verdict_expires_with_its_disturb_bucket(monkeypatch):
    """A memoised verdict is good for the reads left in the block's
    disturb bucket *including* the read it was computed for: the ladder
    is consulted again at pre-read disturb count 4096, not 4097."""
    ftl, clock = make_rel_ftl()
    ftl.host_write_page(0)
    consulted = []
    model = ftl.media.model
    real = model.read_outcome

    def spy(pe_cycles, retention_s, read_disturbs):
        consulted.append(read_disturbs)
        return real(pe_cycles, retention_s, read_disturbs)

    monkeypatch.setattr(model, "read_outcome", spy)
    for _ in range(4100):
        ftl.host_read_page(0)
    assert consulted == [0, 4096]
    assert ftl.stats.ecc_fast_reads == 4100
