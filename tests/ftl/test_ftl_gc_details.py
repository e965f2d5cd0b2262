"""Deeper FTL tests: FGC penalty, wear levelling, forced victims,
out-of-space behaviour and free-accounting arithmetic."""

import dataclasses
import itertools
import random
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments.crashsweep import gc_heavy_spec
from repro.experiments.runner import _run_scenario_host
from repro.faults.injector import FaultInjector, FaultProfile
from repro.ftl.ftl import DeviceReadOnlyError, FtlError, OutOfSpaceError, PageMappedFtl
from repro.ftl.mapping import TRANS_LPN_BASE
from repro.ftl.recovery import recover_ftl
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.reliability import ReadDisturbTracker, ReadOutcome
from repro.nand.timing import NandTiming
from repro.obs import ObservabilityConfig
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
# The one relocation routine (evacuate the source, land it per frontier
# run, a one-page step where a read is lost or cannot be read ahead)
# against the per-page loop it replaced, on twin FTLs
# ----------------------------------------------------------------------
WIDE = NandGeometry(page_size=128, pages_per_block=8, blocks_per_plane=32)


def relocate_per_page(ftl, source, data_frontier, retire_on_fail):
    """The per-page relocation, kept as the one routine's reference: each
    valid page is read, then programmed and remapped -- a translation
    page onto the translation frontier, a data page onto
    ``data_frontier`` -- or, when a data page's read is lost, unmapped
    and tombstoned.  Returns the latency and the data LPNs moved or
    lost, for the caller's translation-tier touch.  Patched over
    ``PageMappedFtl._relocate_valid_pages``."""
    pm, ppb = ftl.page_map, ftl.geometry.pages_per_block
    latency = 0
    pages = list(pm.valid_lpns_in_block(source))
    for offset, lpn in pages:
        read_ns, ok = ftl.media.read(source, offset)
        latency += read_ns
        ftl.stats.gc_pages_read += 1
        if lpn >= TRANS_LPN_BASE:
            block, page, program_ns = ftl._program(ftl.frontiers[2], lpn, retire_on_fail)
            pm.remap_trans(lpn - TRANS_LPN_BASE, block * ppb + page)
            ftl.stats.trans_pages_migrated += 1
        elif ok:
            block, page, program_ns = ftl._program(data_frontier, lpn, retire_on_fail)
            pm.remap(lpn, block * ppb + page)
            ftl.stats.gc_pages_migrated += 1
        else:
            pm.unmap(lpn)
            program_ns = ftl._journal_tombstones([lpn])
        latency += program_ns
    pm.clear_block(source)
    return latency, [lpn for _, lpn in pages if lpn < TRANS_LPN_BASE]


class PlacedFaults(FaultInjector):
    """Faults at fixed places: a read of ``lost`` that no retry recovers
    and a program of ``failed`` that status-fails, ``(block, page)``
    each; nothing else faults.  Both twins draw the same places."""

    def __init__(self):
        super().__init__(FaultProfile(program_fail_prob=0.5), seed=0)
        self.lost = self.failed = None

    def program_fails(self, block, page, pe_cycles):
        return (block, page) == self.failed

    def erase_fails(self, block, pe_cycles):
        return False

    def read_uncorrectable(self, block, page, pe_cycles):
        return (block, page) == self.lost

    def read_retry_succeeds(self):
        return False

    def meta_program_fails(self, block, page, pe_cycles):
        return False


def make_twin(mode, free):
    """A churned FTL whose victim's frontier (GC, or translation for a
    ``-trans`` mode) has exactly ``free`` pages left (0: it is full, so
    the next landed page rolls it first)."""
    config = SsdConfig(
        geometry=WIDE,
        timing=TIMING,
        op_ratio=0.25,
        mapping_mode="dftl" if mode.startswith("dftl") else "dram",
        cmt_budget_bytes=256 if mode.startswith("dftl") else None,
        reliability="mlc-20nm" if mode == "mlc-20nm" else None,
    )
    injector = PlacedFaults() if mode.endswith("faults") else None
    ftl = config.build_ftl(nand=NandArray(WIDE, TIMING, fault_injector=injector))
    rng = random.Random(11)
    user = ftl.space.user_pages
    for _ in range(WIDE.total_pages * 2):
        ftl.host_write_page(rng.randrange(user))
    frontier = ftl.frontiers[2 if "trans" in mode else 1]
    while WIDE.pages_per_block - ftl.nand.next_programmable_page(frontier.block) != free:
        block, page = ftl._frontier_slot(frontier)
        ftl.nand.program_page(block, page)  # unstamped: consumed, never valid
    return ftl


def pick_victim(ftl, mode):
    """The fullest closed block of the mode's page class with garbage:
    2..7 valid pages, so it fits the frontier (7 free), straddles it (1
    free) or rolls it (0)."""
    pm, trans = ftl.page_map, "trans" in mode
    return max(
        (
            block
            for block, count in ftl.victim_index.items()
            if 2 <= count < WIDE.pages_per_block
            and (next(pm.valid_lpns_in_block(block))[1] >= TRANS_LPN_BASE) == trans
        ),
        key=lambda block: (pm.valid_count(block), block),
    )


def on_sip_list(victim, *twins):
    """Put the victim's data pages but its first (and a spread of others)
    on the SIP list, so the overlap counters follow moved and lost pages."""
    mine = [lpn for _, lpn in twins[0].page_map.valid_lpns_in_block(victim)][1:]
    for ftl in twins:
        ftl.set_sip_list([lpn for lpn in mine if lpn < TRANS_LPN_BASE] + list(range(0, 40, 3)))


def assert_twins_equal(one, ref):
    assert one.stats == ref.stats
    assert one._write_seq == ref._write_seq
    for attr in ("_l2p", "_valid"):
        assert np.array_equal(getattr(one.page_map, attr), getattr(ref.page_map, attr))
    assert np.array_equal(one.page_map.valid_counts(), ref.page_map.valid_counts())
    if one.page_map.directory() is not None:
        assert np.array_equal(one.page_map.directory(), ref.page_map.directory())
        assert one.page_map.gtd_mapped_count == ref.page_map.gtd_mapped_count
    for attr in ("oob_lpn", "oob_seq", "program_ptr"):
        assert np.array_equal(getattr(one.nand, attr), getattr(ref.nand, attr))
    assert one.nand.meta.capture() == ref.nand.meta.capture()
    assert dict(one.victim_index.items()) == dict(ref.victim_index.items())
    assert np.array_equal(one.sip_index.snapshot(), ref.sip_index.snapshot())
    assert [f.block for f in one.frontiers] == [f.block for f in ref.frontiers]
    assert one.retired_blocks == ref.retired_blocks
    one.invariant_check()
    ref.invariant_check()


@pytest.mark.parametrize("gc_free, runs", [(7, 1), (1, 2), (0, 1)])
@pytest.mark.parametrize(
    "mode, sip",
    [
        ("dram", False),
        ("dram", True),
        ("dftl", False),
        ("dftl-trans", False),
        ("mlc-20nm", False),
    ],
)
def test_batched_migration_equals_per_page_scan(monkeypatch, mode, sip, gc_free, runs):
    one, ref = (make_twin(mode, gc_free) for _ in range(2))
    victim = pick_victim(one, mode)
    if mode == "mlc-20nm":
        outcome = one.media.verdict(victim)
        assert outcome.level == 0 and outcome.ok  # a fast-path block
        ref.media.verdict(victim)
    if sip:
        on_sip_list(victim, one, ref)
        assert one.sip_index.overlap(victim) >= one.page_map.valid_count(victim) - 1
    programs_before = one.nand.batch_programs

    latency = one._migrate_and_erase(victim)

    assert one.nand.batch_programs - programs_before == runs
    monkeypatch.setattr(ref, "_relocate_valid_pages", partial(relocate_per_page, ref))
    assert latency == ref._migrate_and_erase(victim)
    assert_twins_equal(one, ref)


@pytest.mark.parametrize("mode", ["dram", "dftl"])
def test_a_uecc_inside_a_stressed_victim_is_a_one_page_step(monkeypatch, mode):
    """The ladder reads a stressed victim page by page; the page whose
    read crosses into a UECC is unmapped and tombstoned between the two
    runs around it."""
    one, ref = (make_twin(mode, 7) for _ in range(2))
    victim = pick_victim(one, mode)
    count = one.page_map.valid_count(victim)
    on_sip_list(victim, one, ref)
    retry = ReadOutcome(ok=True, level=1, soft=False, extra_ns=40)
    uecc = ReadOutcome(ok=False, level=3, soft=True, extra_ns=700)
    for ftl in (one, ref):
        # A ladder whose verdict moves with the block's read count and
        # holds for one read: the third page read from the victim (whose
        # count starts at 1000) is a UECC, every other read pays one
        # retry level.
        disturb = ReadDisturbTracker(WIDE.total_blocks, scrub_threshold=10**9)
        disturb.read_counts[victim] = 1000
        ftl.nand.read_disturb = disturb
        ftl.media.model = SimpleNamespace(
            verdict=lambda pe, age, reads: (uecc if reads == 1002 else retry, 10**12, 1)
        )
    programs_before, stats_before = one.nand.batch_programs, one.stats.snapshot()

    latency = one._migrate_and_erase(victim)

    assert one.nand.batch_programs - programs_before == 2
    moved = one.stats.delta_since(stats_before)
    assert moved.uecc_count == 1 and moved.gc_pages_migrated == count - 1
    assert moved.tombstones_journaled == 1
    monkeypatch.setattr(ref, "_relocate_valid_pages", partial(relocate_per_page, ref))
    assert latency == ref._migrate_and_erase(victim)
    assert_twins_equal(one, ref)


@pytest.mark.parametrize("mode", ["dram-faults", "dftl-faults", "dftl-trans-faults"])
def test_injected_faults_inside_a_victim_take_one_page_steps(monkeypatch, mode):
    """Under an injector every page is a one-page step: a lost read on
    the victim's second page and a program fault on the frontier's third
    landed page, whose retirement relocates the pages already landed
    there through the same routine."""
    one, ref = (make_twin(mode, 7) for _ in range(2))
    victim = pick_victim(one, mode)
    trans = "trans" in mode
    on_sip_list(victim, one, ref)
    second = [offset for offset, _ in one.page_map.valid_lpns_in_block(victim)][1]
    frontier = one.frontiers[2 if trans else 1]
    for ftl in (one, ref):
        ftl.nand.fault_injector.lost = (victim, second)
        ftl.nand.fault_injector.failed = (frontier.block, 3)
    retired, programs_before, stats_before = (
        frontier.block, one.nand.batch_programs, one.stats.snapshot()
    )

    latency = one._migrate_and_erase(victim)

    assert one.nand.batch_programs == programs_before  # no runs
    assert one.retired_blocks == {retired}
    moved = one.stats.delta_since(stats_before)
    assert moved.uncorrectable_reads == 1 and moved.program_faults == 1
    assert moved.tombstones_journaled == (0 if trans else 1)
    monkeypatch.setattr(ref, "_relocate_valid_pages", partial(relocate_per_page, ref))
    assert latency == ref._migrate_and_erase(victim)
    assert_twins_equal(one, ref)


def test_a_recovered_translation_stream_never_resumes_on_a_data_block(monkeypatch):
    """A dftl device cut after its user frontier rolled past the other
    streams' untouched blocks, before any translation writeback or GC:
    those two hold only their torn page, the third holds data too.  The
    translation stream resumes on a torn-only block, so when the
    recovered device collects the data block it relocates one page
    class, exactly as the per-page reference does."""
    config = SsdConfig(
        geometry=WIDE, timing=TIMING, op_ratio=0.25, mapping_mode="dftl",
        cmt_budget_bytes=256,
    )
    ftl = config.build_ftl(nand=NandArray(WIDE, TIMING))
    kept = 0  # LPNs below this are never rewritten: they stay valid
    while ftl.active_user_block < max(ftl.frontiers[1].block, ftl.frontiers[2].block):
        ftl.host_write_page(kept)
        kept += 1
    assert ftl.page_map.gtd_mapped_count == 0 and ftl.stats.blocks_erased == 0
    data_block = ftl.active_user_block
    nand = config.restore_nand(ftl.nand.capture_durable_state())
    for frontier in ftl.frontiers:
        nand.tear_frontier_page(frontier.block)
    image = nand.capture_durable_state()
    one, ref = (
        recover_ftl(config.restore_nand(twin), config)[0]
        for twin in (image.copy(), image)
    )
    assert one.active_trans_block != data_block
    monkeypatch.setattr(ref, "_relocate_valid_pages", partial(relocate_per_page, ref))

    rng = random.Random(5)
    user = one.space.user_pages
    for _ in range(20 * WIDE.total_pages):
        if one.nand.erase_counts[data_block]:  # GC collected it
            break
        lpn = rng.randrange(kept, user)
        assert one.host_write_page(lpn) == ref.host_write_page(lpn)
    assert one.nand.erase_counts[data_block] == 1
    assert one.stats.trans_pages_migrated > 0
    assert_twins_equal(one, ref)


def test_an_exception_inside_a_one_page_step_puts_the_pages_back():
    """Every frontier block fails its programs from page 3 on: retirement
    follows retirement inside a step until the spare pool runs dry in a
    retirement's allocation.  The victim's routine puts back what had not
    landed, so the device is consistent where the error leaves it."""
    ftl = make_twin("dram-faults", 7)
    victim = pick_victim(ftl, "dram-faults")
    moving = [lpn for _, lpn in ftl.page_map.valid_lpns_in_block(victim)]
    ftl.nand.fault_injector.program_fails = lambda block, page, pe: page >= 3

    with pytest.raises(FtlError) as raised:
        ftl._migrate_and_erase(victim)

    frames = [frame.name for frame in raised.traceback]
    assert frames.count("_relocate_valid_pages") == 1
    assert frames[frames.index("_relocate_valid_pages") + 1] == "_program"
    assert "_retire_failed_frontier" in frames
    assert ftl.page_map.valid_count(victim) > 0
    ftl.invariant_check()
    for lpn in moving:
        assert ftl.page_map.lpn_of_ppn(ftl.page_map.lookup(lpn)) == lpn


def test_pool_exhausted_under_a_migration_leaves_a_consistent_device():
    """When retirements have eaten the spare blocks, a frontier can find
    the pool empty mid-victim -- in a run, or (under an injector, which
    makes every page a one-page step) inside ``_program``.  The device
    goes read-only there, and the pages that never landed must be back
    in the victim, index included."""
    geometry = NandGeometry(page_size=4096, pages_per_block=8, blocks_per_plane=32)
    cut_mid_migration = {False: 0, True: 0}  # by "inside a one-page step"
    for step, seed in itertools.product((False, True), range(12)):
        config = SsdConfig(
            geometry=geometry,
            timing=TIMING,
            op_ratio=0.25,
            pe_cycle_limit=5,
            # Enabled, but never fires within a run this short.
            fault_profile=FaultProfile(program_fail_prob=1e-12) if step else None,
        )
        ftl = config.build_ftl()
        rng = random.Random(seed)
        user = ftl.space.user_pages
        with pytest.raises(DeviceReadOnlyError) as raised:
            while True:
                ftl.host_write_extent(rng.randrange(user - 6), rng.randrange(1, 7))
        frames = [frame.name for frame in raised.traceback]
        if "_relocate_valid_pages" in frames:
            cut_mid_migration[step] += 1
            assert ("_program" in frames) == step
        ftl.invariant_check()
        for lpn in range(user):
            ppn = ftl.page_map.lookup(lpn)
            assert ppn is None or ftl.page_map.lpn_of_ppn(ppn) == lpn
    assert cut_mid_migration[False] > 0 and cut_mid_migration[True] > 0


def faulted_gc_heavy_run():
    """A GC-heavy dftl run with the accelerated ladder and injected media
    faults on every stream: translation victims, stressed reads, lost
    reads and frontier retirements all take the relocation routine."""
    spec = gc_heavy_spec(
        blocks=512,
        pages_per_block=16,
        seed=3,
        warmup_s=2,
        measure_s=8,
        mapping="dftl",
        cmt_budget_bytes=2 * 4096,
        reliability="mlc-20nm-accel",
        fault_profile=FaultProfile(
            program_fail_prob=5e-4,
            erase_fail_prob=2e-4,
            read_uncorrectable_prob=2e-3,
            read_retry_success_prob=0.3,
        ),
        obs=ObservabilityConfig(audit=True),
    )
    metrics, host = _run_scenario_host(spec)
    return metrics, host.ftl, host.obs.audit


def test_a_faulted_dftl_run_equals_the_per_page_reference(monkeypatch):
    metrics, ftl, audit = faulted_gc_heavy_run()
    stats = ftl.stats
    assert not ftl.read_only
    assert stats.trans_pages_migrated > 0 and stats.ecc_retry_reads > 0
    assert stats.program_faults > 0 and stats.blocks_retired > 0
    assert stats.tombstones_journaled > 0  # data pages lost under GC

    monkeypatch.setattr(PageMappedFtl, "_relocate_valid_pages", relocate_per_page)
    ref_metrics, ref, ref_audit = faulted_gc_heavy_run()

    assert metrics.to_wire() == ref_metrics.to_wire()
    assert ftl.nand.fault_injector.fault_log == ref.nand.fault_injector.fault_log
    assert audit == ref_audit
    image, ref_image = (f.nand.capture_durable_state() for f in (ftl, ref))
    for field in dataclasses.fields(image):
        mine, theirs = getattr(image, field.name), getattr(ref_image, field.name)
        assert (
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
        ), field.name
