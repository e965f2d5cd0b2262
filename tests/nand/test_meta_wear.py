"""Tests for metadata wear accounting: the reserved-block ring that
absorbs checkpoint/tombstone programs (repro.nand.metaregion), the log
that programs every record through it, its FTL wiring and the read-only
terminal state on exhaustion."""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector, FaultProfile
from repro.ftl.ftl import DeviceReadOnlyError
from repro.ftl.mapping import UNMAPPED
from repro.ftl.metastore import KIND_UNMAP
from repro.nand.array import NandArray
from repro.nand.endurance import EnduranceModel
from repro.nand.geometry import NandGeometry
from repro.nand.metaregion import MetaRegion
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=8)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


def _pages(n):
    """A record payload exactly ``n`` metadata pages long."""
    return bytes(n * GEOMETRY.page_size)


def _one_life_nand():
    """One reserved block rated for a single erase: its first wrap
    retires it and exhausts the log."""
    endurance = EnduranceModel(GEOMETRY.total_blocks, pe_cycle_limit=1)
    return NandArray(GEOMETRY, TIMING, endurance, meta_blocks=1)


# ----------------------------------------------------------------------
# MetaRegion ring semantics
# ----------------------------------------------------------------------
def test_program_advances_frontier_without_erases_until_wrap():
    region = MetaRegion(blocks=2, pages_per_block=4)
    first = region.program(3)
    assert first.pages_programmed == 3
    assert first.erases == 0
    # 5 more pages: finishes block 0 (1 page) and fills block 1 (4
    # pages); both blocks were never written, so still no erase.
    out = region.program(5)
    assert out.pages_programmed == 5
    assert out.erases == 0
    assert first.pages_programmed + out.pages_programmed == 8


def test_wrap_erases_oldest_block_before_reuse():
    region = MetaRegion(blocks=2, pages_per_block=4)
    region.program(8)  # both blocks full
    out = region.program(1)  # wraps onto block 0 -> erase first
    assert out.erases == 1
    assert out.pages_programmed == 1
    assert region.erase_counts.tolist() == [1, 0]


def test_wear_out_retires_block_and_exhausts_region():
    region = MetaRegion(blocks=1, pages_per_block=2, pe_cycle_limit=2)
    region.program(2)
    out = region.program(2)  # wrap #1 -> erase_count 1
    assert out.erases == 1 and not out.exhausted
    out = region.program(2)  # wrap #2 -> erase_count 2 == limit -> retire
    assert out.blocks_retired == 1
    assert out.exhausted
    assert region.exhausted
    # Further programs are refused.
    out = region.program(1)
    assert out.exhausted and out.pages_programmed == 0


def test_erase_fault_retires_block():
    injector = FaultInjector(FaultProfile(erase_fail_prob=1.0), seed=7)
    region = MetaRegion(blocks=2, pages_per_block=2, fault_injector=injector)
    region.program(4)  # fill both
    out = region.program(1)  # every wrap-erase fails -> both retired
    assert out.erase_faults == 2
    assert out.blocks_retired == 2
    assert out.exhausted
    # A failed erase still stresses the cells.
    assert region.erase_counts.tolist() == [1, 1]


def test_program_fault_wastes_page_and_retries_on_next():
    class EveryOther:
        def __init__(self):
            self.n = 0

        def meta_program_fails(self, block, page, pe_cycles):
            self.n += 1
            return self.n % 2 == 1

        def meta_erase_fails(self, block, pe_cycles):
            return False

    region = MetaRegion(blocks=2, pages_per_block=4, fault_injector=EveryOther())
    out = region.program(3)
    # Alternating fail/succeed: 3 payload pages cost 6 physical pages.
    assert out.pages_programmed == 3
    assert out.program_faults == 3


def test_capture_restore_round_trip():
    region = MetaRegion(blocks=3, pages_per_block=4, pe_cycle_limit=50)
    region.program(17)
    state = region.capture()
    clone = MetaRegion(blocks=3, pages_per_block=4, pe_cycle_limit=50)
    clone.load(state)
    assert np.array_equal(clone.erase_counts, region.erase_counts)
    assert np.array_equal(clone.retired, region.retired)
    assert clone._block == region._block and clone._page == region._page
    # The clone continues exactly where the original would.
    a = region.program(9)
    b = clone.program(9)
    assert (a.pages_programmed, a.erases) == (b.pages_programmed, b.erases)


def test_region_validates_arguments():
    with pytest.raises(ValueError):
        MetaRegion(blocks=0, pages_per_block=4)
    with pytest.raises(ValueError):
        MetaRegion(blocks=1, pages_per_block=0)


# ----------------------------------------------------------------------
# The log programs every record through the ring
# ----------------------------------------------------------------------
def test_nand_meta_program_prices_nand_work():
    nand = NandArray(GEOMETRY, TIMING, meta_blocks=1)
    out = nand.meta.append(KIND_UNMAP, _pages(4))  # fills the reserved block
    assert out.latency_ns == 4 * TIMING.program_ns
    out = nand.meta.append(KIND_UNMAP, _pages(2))  # wrap: erase + two programs
    assert out.erases == 1
    assert out.latency_ns == 2 * TIMING.program_ns + TIMING.erase_ns


def test_partly_landed_record_is_torn_and_keeps_the_landed_pages():
    nand = _one_life_nand()
    nand.meta.append(KIND_UNMAP, _pages(2))
    payload = bytes(range(256)) * (4 * GEOMETRY.page_size // 256)
    # Two pages land in the open block; the wrap erase wears it out.
    out = nand.meta.append(KIND_UNMAP, payload)
    assert out.exhausted and out.pages_programmed == 2
    assert out.latency_ns == 2 * TIMING.program_ns + TIMING.erase_ns
    record = out.record
    assert record.torn and record.pages == 2
    assert record.payload == payload[: 2 * GEOMETRY.page_size]
    assert record.parsed is None
    assert nand.meta.records[-1] is record
    assert nand.meta.exhausted


def test_exhausted_log_tears_even_a_one_page_record():
    nand = _one_life_nand()
    nand.meta.append(KIND_UNMAP, _pages(4))
    assert nand.meta.append(KIND_UNMAP, _pages(1)).exhausted
    out = nand.meta.append(KIND_UNMAP, _pages(1))
    assert out.exhausted and out.pages_programmed == 0 and out.latency_ns == 0
    assert out.record.torn and out.record.payload == b""
    assert [record.torn for record in nand.meta.records] == [False, True, True]


def test_meta_wear_survives_durable_capture():
    """Capture then power-on carries the records and the ring wear as
    one image, and the powered-on log continues as the original would."""
    nand = NandArray(GEOMETRY, TIMING, meta_blocks=2)
    for pages in (3, 5, 3):  # past one wrap (capacity 8)
        nand.meta.append(KIND_UNMAP, _pages(pages))
    state = nand.capture_durable_state()
    clone = NandArray(GEOMETRY, TIMING, meta_blocks=2, durable=state)
    assert clone.meta.records == nand.meta.records
    ring, twin = nand.meta.ring, clone.meta.ring
    assert np.array_equal(twin.erase_counts, ring.erase_counts)
    assert twin._block == ring._block
    assert twin._page == ring._page
    for pages in (6, 1, 7):
        a = nand.meta.append(KIND_UNMAP, _pages(pages))
        b = clone.meta.append(KIND_UNMAP, _pages(pages))
        assert (a.latency_ns, a.erases, a.record) == (b.latency_ns, b.erases, b.record)
    assert np.array_equal(twin.erase_counts, ring.erase_counts)
    # The image itself never moved.
    assert len(state.meta.records) == 3


# ----------------------------------------------------------------------
# FTL routing: checkpoints and tombstones age the reserved blocks
# ----------------------------------------------------------------------
def test_checkpoint_traffic_wears_metadata_ring():
    cfg = SsdConfig.small(blocks=64, checkpoint_interval_pages=200, meta_blocks=1)
    ftl = cfg.build_ftl()
    for i in range(20000):
        ftl.host_write_page(i % 2000)
    stats = ftl.stats
    assert stats.checkpoints_written > 0
    assert stats.meta_pages_written > 0
    assert stats.meta_block_erases > 0, "ring should have wrapped"
    assert ftl.nand.meta.ring.total_erases() == stats.meta_block_erases
    ftl.invariant_check()


def test_tombstone_journal_charges_meta_region():
    cfg = SsdConfig.small(blocks=64, meta_blocks=2)
    ftl = cfg.build_ftl()
    for i in range(256):
        ftl.host_write_page(i)
    before = ftl.stats.meta_pages_written
    latency = ftl.trim(range(128))
    assert latency > 0
    assert ftl.stats.meta_pages_written > before
    assert ftl.stats.meta_pages_written == ftl.nand.meta.pages_held()


def test_meta_exhaustion_drives_device_read_only():
    cfg = SsdConfig.small(
        blocks=64, checkpoint_interval_pages=200, meta_blocks=1, pe_cycle_limit=5
    )
    ftl = cfg.build_ftl()
    with pytest.raises(DeviceReadOnlyError):
        for i in range(300000):
            ftl.host_write_page(i % 2000)
    assert ftl.read_only
    assert ftl.stats.meta_blocks_retired == 1
    assert ftl.nand.meta.exhausted


def test_mid_checkpoint_exhaustion_keeps_newest_complete_generation():
    """Wear exhaustion landing mid-checkpoint must not corrupt recovery.

    When the ring dies partway through a checkpoint record the log must
    mark that record torn (its tail never reached NAND) and the FTL go
    read-only; the
    previous complete generation stays authoritative and power-on
    recovery restores the exact pre-exhaustion mapping from it plus the
    OOB tail."""
    cfg = SsdConfig.small(
        blocks=64, pages_per_block=32, meta_blocks=1, pe_cycle_limit=3,
        checkpoint_interval_pages=10**9,  # only explicit checkpoints
    )
    ftl = cfg.build_ftl(seed=4)
    for i in range(1200):
        ftl.host_write_page(i % 600)
    ftl.write_checkpoint()
    complete_gen = ftl._ckpt_generation
    ckpt_pages = ftl.nand.meta.records[-1].pages
    assert ckpt_pages > 1, "need a multi-page record to tear mid-program"

    # Burn ring capacity one page at a time until the *next* checkpoint
    # record is guaranteed to exhaust mid-record (probe on a clone).
    ring = ftl.nand.meta.ring
    while True:
        probe = MetaRegion(1, cfg.geometry.pages_per_block, pe_cycle_limit=3)
        probe.load(ring.capture())
        out = probe.program(ckpt_pages)
        if out.exhausted and 0 < out.pages_programmed < ckpt_pages:
            break
        assert not ring.exhausted
        ring.program(1)

    ftl.write_checkpoint()
    assert ftl.read_only
    torn = ftl.nand.meta.records[-1]
    assert torn.torn and torn.generation == complete_gen + 1
    assert torn.pages < ckpt_pages

    recovered, report = cfg.recover_from(ftl.nand.capture_durable_state(), seed=4)
    assert report.checkpoint_generation == complete_gen
    assert report.torn_meta_records >= 1
    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )


#: One reserved block rated for three erases: it holds 24 tombstone pages.
WORN_RING = SsdConfig(
    geometry=NandGeometry(page_size=4096, pages_per_block=8, blocks_per_plane=64),
    op_ratio=0.25,
    meta_blocks=1,
    pe_cycle_limit=3,
)


def _wear_out_ring_with_a_trim():
    """24 TRIM + rewrite pairs fill the ring; the 25th one-page TRIM
    exhausts it, tears its own record and is refused."""
    ftl = WORN_RING.build_ftl()
    for lpn in range(64):
        ftl.host_write_page(lpn)
    for lpn in range(24):
        ftl.trim([lpn])
        ftl.host_write_page(lpn)
    with pytest.raises(DeviceReadOnlyError):
        ftl.trim([24])
    return ftl


def test_trim_whose_record_tears_leaves_the_mapping_recovery_rebuilds():
    """A TRIM changes the mapping only once its record has landed in
    full: the one whose record tore keeps LPN 24 mapped, live and after
    power-on alike."""
    ftl = _wear_out_ring_with_a_trim()
    assert ftl.nand.meta.records[-1].torn
    assert ftl.stats.pages_trimmed == 24
    recovered, _ = WORN_RING.recover_from(ftl.nand.capture_durable_state())
    assert ftl.page_map.lookup(24) is not None
    assert recovered.page_map.lookup(24) == ftl.page_map.lookup(24)


def test_power_on_over_a_worn_out_ring_comes_back_read_only():
    """A ring that cannot journal anything keeps the device read-only
    across power loss: the recovered FTL refuses host writes."""
    ftl = WORN_RING.build_ftl()
    for lpn in range(64):
        ftl.host_write_page(lpn)
    ring = ftl.nand.meta.ring
    while not ring.exhausted:  # wear the ring out under the FTL
        ring.program(1)
    recovered, _ = WORN_RING.recover_from(ftl.nand.capture_durable_state())
    assert recovered.nand.meta.exhausted
    assert recovered.read_only
    with pytest.raises(DeviceReadOnlyError):
        recovered.host_write_page(0)


def test_trim_on_worn_out_metadata_blocks_is_refused_untouched():
    """A TRIM the log can no longer journal must not be acknowledged.

    The TRIM that exhausts the ring drives the device read-only.  A
    further TRIM is refused before it unmaps anything, so the live
    mapping and what recovery rebuilds agree."""
    cfg = WORN_RING
    ftl = _wear_out_ring_with_a_trim()
    assert ftl.read_only
    assert ftl.nand.meta.records[-1].torn
    assert ftl.stats.meta_pages_written == 24

    l2p = ftl.page_map.l2p_snapshot()
    write_seq = ftl._write_seq
    records = ftl.nand.meta.records
    with pytest.raises(DeviceReadOnlyError):
        ftl.trim([5])
    assert np.array_equal(ftl.page_map.l2p_snapshot(), l2p)
    assert ftl._write_seq == write_seq
    assert ftl.nand.meta.records == records

    # Nothing of the refused TRIM reaches the image: LPN 5 stays mapped.
    recovered, report = cfg.recover_from(ftl.nand.capture_durable_state())
    assert report.tombstones_replayed == 0
    assert recovered.page_map.lookup(5) == ftl.page_map.lookup(5) != UNMAPPED
