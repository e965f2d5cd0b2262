"""Tests for FTL fault recovery: read retry, block retirement, degraded
OP accounting and the read-only terminal state."""

import random

import pytest

from repro.faults.injector import FaultInjector, FaultProfile
from repro.ftl.ftl import DeviceReadOnlyError
from repro.ftl.mapping import TRANS_LPN_BASE
from repro.nand.array import OOB_UNSTAMPED, NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=16)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


class ScriptedInjector(FaultInjector):
    """Injector that fires faults from explicit scripts (True = fault).

    Exhausted scripts never fault (retries always succeed), so each test
    stages exactly the failure sequence it wants to exercise.
    """

    def __init__(self, program=(), erase=(), read=(), retry_fails=()):
        super().__init__(FaultProfile(program_fail_prob=0.5), seed=0)
        self._script = {
            "program": list(program),
            "erase": list(erase),
            "read": list(read),
            "retry": list(retry_fails),
        }

    def _pop(self, kind):
        queue = self._script[kind]
        return queue.pop(0) if queue else False

    def program_fails(self, block, page, pe_cycles):
        if self._pop("program"):
            self.program_faults += 1
            self._log("program", block, page)
            return True
        return False

    def erase_fails(self, block, pe_cycles):
        if self._pop("erase"):
            self.erase_faults += 1
            self._log("erase", block, -1)
            return True
        return False

    def read_uncorrectable(self, block, page, pe_cycles):
        if self._pop("read"):
            self.read_faults += 1
            self._log("read", block, page)
            return True
        return False

    def read_retry_succeeds(self):
        return not self._pop("retry")


def make_ftl(injector=None, op_ratio=0.25, **kwargs):
    nand = NandArray(GEOMETRY, TIMING, fault_injector=injector)
    config = SsdConfig(geometry=GEOMETRY, timing=TIMING, op_ratio=op_ratio, **kwargs)
    return config.build_ftl(nand=nand)


# ----------------------------------------------------------------------
# Read retry
# ----------------------------------------------------------------------
def test_read_retry_recovers_and_counts():
    injector = ScriptedInjector(read=[False, True])
    ftl = make_ftl(injector)
    ftl.host_write_page(0)
    ftl.host_read_page(0)  # scripted: clean
    ftl.host_read_page(0)  # scripted: uncorrectable, first retry recovers
    assert ftl.stats.read_retries == 1
    assert ftl.stats.uncorrectable_reads == 0


def test_read_retry_budget_exhaustion_counts_uncorrectable():
    injector = ScriptedInjector(read=[True], retry_fails=[True] * 10)
    ftl = make_ftl(injector, max_read_retries=3)
    ftl.host_write_page(0)
    ftl.host_read_page(0)
    assert ftl.stats.read_retries == 3
    assert ftl.stats.uncorrectable_reads == 1


# ----------------------------------------------------------------------
# Program failure -> block retirement
# ----------------------------------------------------------------------
def test_program_fail_retires_block_and_write_succeeds():
    injector = ScriptedInjector(program=[True])
    ftl = make_ftl(injector)
    failed_block = ftl.active_user_block
    op_before = ftl.effective_op_pages()

    ftl.host_write_page(0)  # first program attempt fails, retry succeeds

    assert ftl.stats.program_faults == 1
    assert ftl.stats.blocks_retired == 1
    assert failed_block in ftl.retired_blocks
    assert ftl.nand.is_bad(failed_block)
    assert ftl.nand.grown_bad_blocks == 1
    assert ftl.active_user_block != failed_block
    # Retired capacity comes out of the effective OP, one block's worth.
    assert ftl.effective_op_pages() == op_before - GEOMETRY.pages_per_block
    assert ftl.op_timeline and ftl.op_timeline[-1][1] == ftl.effective_op_pages()
    # The write still landed: data is readable.
    assert ftl.page_map.lookup(0) is not None
    ftl.invariant_check()


def test_retirement_relocates_live_pages():
    injector = ScriptedInjector(program=[False, False, True])
    ftl = make_ftl(injector)
    ftl.host_write_page(0)
    ftl.host_write_page(1)
    failed_block = ftl.active_user_block
    ftl.host_write_page(2)  # third program fails; block had 2 live pages

    assert failed_block in ftl.retired_blocks
    assert ftl.stats.gc_pages_migrated >= 2  # LPNs 0 and 1 relocated
    for lpn in (0, 1, 2):
        ppn = ftl.page_map.lookup(lpn)
        assert ppn is not None
        assert ftl.page_map.block_of(ppn) != failed_block
    ftl.invariant_check()


def test_unrecoverable_page_during_retirement_is_unmapped():
    # Program fail on the third write; relocating LPN 0 hits an
    # uncorrectable read whose retries all fail -> data lost, unmapped.
    injector = ScriptedInjector(
        program=[False, False, True], read=[True], retry_fails=[True] * 10
    )
    ftl = make_ftl(injector)
    ftl.host_write_page(0)
    ftl.host_write_page(1)
    ftl.host_write_page(2)

    assert ftl.stats.uncorrectable_reads == 1
    assert ftl.page_map.lookup(0) is None  # lost, not silently stale
    assert ftl.page_map.lookup(1) is not None
    ftl.invariant_check()


# ----------------------------------------------------------------------
# Erase failure -> retirement via GC
# ----------------------------------------------------------------------
def test_erase_fail_retires_victim_block():
    injector = ScriptedInjector(erase=[True] * 10)
    ftl = make_ftl(injector, max_erase_retries=2)
    # Fill one block with garbage (overwrites), then collect it.
    for _ in range(3):
        for lpn in range(GEOMETRY.pages_per_block):
            ftl.host_write_page(lpn)
    assert ftl.has_victim()
    retired_before = ftl.stats.blocks_retired
    ftl.collect_one_block(background=False)

    assert ftl.stats.erase_faults == 3  # initial attempt + 2 retries
    assert ftl.stats.blocks_retired == retired_before + 1
    retired = next(iter(ftl.retired_blocks))
    assert ftl.nand.is_bad(retired)
    ftl.invariant_check()


# ----------------------------------------------------------------------
# Terminal read-only state
# ----------------------------------------------------------------------
def test_op_exhaustion_enters_read_only():
    # OP is 0.25 -> 4 spare blocks; four consecutive frontier failures on
    # one write retire four blocks and exhaust the effective OP.
    injector = ScriptedInjector(program=[True] * 4)
    ftl = make_ftl(injector, max_program_retries=8)
    ftl.host_write_page(0)  # survives, but burns the whole OP

    assert ftl.stats.blocks_retired == 4
    assert ftl.effective_op_pages() == 0
    assert ftl.read_only
    with pytest.raises(DeviceReadOnlyError):
        ftl.host_write_page(1)
    # Reads still work in the terminal state.
    ftl.host_read_page(0)
    ftl.invariant_check()


def test_victim_selection_excludes_retired_blocks():
    from repro.ftl.victim import GreedySelector, SipFilteredSelector

    ftl = make_ftl(None)
    # Two garbage-heavy closed blocks; exclude the greedy favourite.
    for _ in range(3):
        for lpn in range(2 * GEOMETRY.pages_per_block):
            ftl.host_write_page(lpn)
    index = ftl.victim_index
    best, _ = index.min_block()
    assert best not in {block for block, _ in index.ranked({best})}
    second, _ = index.min_block({best})
    assert second != best
    # Every valid page on the SIP list: the SIP-filtered selector walks
    # the ranking (and falls back to its head), the greedy one does not.
    ftl.set_sip_list(range(2 * GEOMETRY.pages_per_block))
    for selector in (GreedySelector(), SipFilteredSelector()):
        decision = selector.select(
            ftl.page_map, index, ftl.sip_index,
            sip_lpns=ftl.sip_lpns, excluded_blocks={best},
        )
        assert decision.block == second


def test_fault_free_device_unaffected():
    ftl = make_ftl(None)
    for lpn in range(8):
        ftl.host_write_page(lpn)
    assert ftl.stats.blocks_retired == 0
    assert not ftl.read_only
    assert ftl.retired_blocks == set()
    assert ftl.op_timeline == []


# ----------------------------------------------------------------------
# Frontier retirement, per write stream (user / GC / translation)
# ----------------------------------------------------------------------
#: 64-byte pages -> 8 mapping entries per translation page, so a
#: 128-page device spreads its ~100 LPNs over 13 translation pages and a
#: one-page CMT writes one back on nearly every host write.
DFTL_GEOMETRY = NandGeometry(page_size=64, pages_per_block=4, blocks_per_plane=32)

STREAMS = [
    ("dram", "user"),
    ("dram", "gc"),
    ("dftl", "user"),
    ("dftl", "gc"),
    ("dftl", "trans"),
]


class ArmedInjector(ScriptedInjector):
    """Scripts that start when a program first targets ``trigger_block``.

    Until then nothing faults, whatever the traffic; from then on every
    program / read / read-retry consumes its script in order, so a test
    stages "fail the next program on *this stream's* frontier, then ..."
    without counting the operations that lead up to it.  Metadata-region
    programs never fault (the base class would draw them from its seeded
    "meta" stream).
    """

    trigger_block = None

    def arm(self, block, program=(), read=(), retry_fails=()):
        self.trigger_block = block
        self._armed = {"program": program, "read": read, "retry": retry_fails}

    def program_fails(self, block, page, pe_cycles):
        if block == self.trigger_block:
            self.trigger_block = None
            for kind, script in self._armed.items():
                self._script[kind] = list(script)
        return super().program_fails(block, page, pe_cycles)

    def meta_program_fails(self, block, page, pe_cycles):
        return False

    def meta_erase_fails(self, block, pe_cycles):
        return False


def frontier_block(ftl, stream):
    return getattr(ftl, f"active_{stream}_block")


def live_pages(ftl, block):
    return list(ftl.page_map.valid_lpns_in_block(block))


def traffic(ftl):
    """Endless deterministic mix of the three streams' work: host writes
    striding across translation pages (user programs, and in dftl mode a
    CMT writeback each) with a background collection every few writes
    (GC programs, translation-block GC).  Yields after each operation."""
    rng = random.Random(17)
    user = ftl.space.user_pages
    step = 0
    while True:
        ftl.host_write_page(rng.randrange(user))
        yield
        step += 1
        if step % 3 == 0 and ftl.has_victim():
            ftl.collect_one_block(background=True)
            yield


def staged_ftl(mode, stream):
    """An FTL whose ``stream`` frontier holds live pages and free slots,
    plus the (not yet armed) injector and the running traffic."""
    injector = ArmedInjector()
    geometry = DFTL_GEOMETRY if mode == "dftl" else GEOMETRY
    config = SsdConfig(
        geometry=geometry,
        timing=TIMING,
        op_ratio=0.25,
        mapping_mode=mode,
        cmt_budget_bytes=geometry.page_size if mode == "dftl" else None,
    )
    ftl = config.build_ftl(
        nand=NandArray(geometry, TIMING, fault_injector=injector)
    )
    ops = traffic(ftl)
    ppb = geometry.pages_per_block
    for _ in range(2000):
        next(ops)
        block = frontier_block(ftl, stream)
        if len(live_pages(ftl, block)) >= 2 and ftl.nand.program_ptr[block] < ppb:
            return ftl, injector, ops
    raise AssertionError(f"traffic never staged the {stream} frontier")


def run_until_fault(ftl, ops):
    for _ in range(200):
        next(ops)
        if ftl.stats.program_faults:
            return
    raise AssertionError("the armed program never ran")


def stamps_burned(ftl):
    """Every successful program and every tombstone burns exactly one
    write-sequence stamp; a failed program burns none."""
    stats = ftl.stats
    return (
        stats.host_pages_written
        + stats.gc_pages_migrated
        + stats.trans_pages_written
        + stats.trans_pages_migrated
        + stats.tombstones_journaled
    )


def assert_stamps_gap_free(ftl):
    assert ftl._write_seq == stamps_burned(ftl)
    surviving = ftl.nand.oob_seq[ftl.nand.oob_seq != OOB_UNSTAMPED]
    assert len(set(surviving.tolist())) == len(surviving)
    assert surviving.max() < ftl._write_seq


def assert_page_lives_off(ftl, lpn, failed):
    """``lpn`` (either namespace) is still mapped, outside ``failed``."""
    pm = ftl.page_map
    if lpn >= TRANS_LPN_BASE:
        ppn = pm.trans_ppn(lpn - TRANS_LPN_BASE)
    else:
        ppn = pm.lookup(lpn)
    assert ppn is not None
    assert pm.block_of(ppn) != failed
    assert pm.lpn_of_ppn(ppn) == lpn


@pytest.mark.parametrize("mode,stream", STREAMS)
def test_program_fail_retires_the_frontier_and_relocates_its_live_pages(mode, stream):
    ftl, injector, ops = staged_ftl(mode, stream)
    failed = frontier_block(ftl, stream)
    live = live_pages(ftl, failed)
    injector.arm(failed, program=[True])

    run_until_fault(ftl, ops)

    assert ftl.stats.program_faults == 1
    assert ftl.stats.blocks_retired == 1
    assert ftl.retired_blocks == {failed}
    assert ftl.nand.is_bad(failed)
    assert frontier_block(ftl, stream) != failed
    assert ftl.page_map.valid_count(failed) == 0
    for _offset, lpn in live:
        assert_page_lives_off(ftl, lpn, failed)
    assert ftl.stats.uncorrectable_reads == 0
    assert ftl.stats.tombstones_journaled == 0
    assert_stamps_gap_free(ftl)
    ftl.invariant_check()


@pytest.mark.parametrize("mode,stream", STREAMS)
def test_nested_program_fail_skips_the_slot_without_recursive_retirement(mode, stream):
    ftl, injector, ops = staged_ftl(mode, stream)
    failed = frontier_block(ftl, stream)
    live = live_pages(ftl, failed)
    # The frontier program fails, then so does the first relocation
    # program onto the replacement frontier.
    injector.arm(failed, program=[True, True])

    run_until_fault(ftl, ops)

    assert ftl.stats.program_faults == 2
    assert ftl.stats.blocks_retired == 1  # the replacement was not retired
    assert ftl.retired_blocks == {failed}
    kinds = [entry for entry in injector.fault_log if entry[0] == "program"]
    (_, _, _), (_, spoiled_block, spoiled_page) = kinds
    assert spoiled_block != failed and spoiled_block not in ftl.retired_blocks
    # The spoiled slot is consumed but unstamped garbage; the page that
    # was headed there landed on the next slot instead.
    ppb = ftl.geometry.pages_per_block
    assert ftl.nand.oob_seq[spoiled_block * ppb + spoiled_page] == OOB_UNSTAMPED
    assert not ftl.page_map.is_valid(spoiled_block * ppb + spoiled_page)
    for _offset, lpn in live:
        assert_page_lives_off(ftl, lpn, failed)
    assert_stamps_gap_free(ftl)
    ftl.invariant_check()


@pytest.mark.parametrize("mode,stream", STREAMS)
def test_lost_read_in_retirement_unmaps_data_not_translation(mode, stream):
    ftl, injector, ops = staged_ftl(mode, stream)
    failed = frontier_block(ftl, stream)
    live = live_pages(ftl, failed)
    # The first relocation read is uncorrectable and no retry recovers it.
    injector.arm(failed, program=[True], read=[True], retry_fails=[True] * 10)

    run_until_fault(ftl, ops)

    assert ftl.stats.blocks_retired == 1
    assert ftl.stats.uncorrectable_reads == 1
    ((_, lost_block, lost_page),) = [e for e in injector.fault_log if e[0] == "read"]
    assert lost_block == failed
    ppb = ftl.geometry.pages_per_block
    lost_lpn = int(ftl.nand.oob_lpn[failed * ppb + lost_page])
    assert lost_lpn in [lpn for _offset, lpn in live]
    if stream == "trans":
        # Translation content is reconstructible from the authoritative
        # map: the page is reprogrammed, nothing is unmapped or journaled.
        assert_page_lives_off(ftl, lost_lpn, failed)
        assert ftl.stats.tombstones_journaled == 0
    else:
        assert ftl.page_map.lookup(lost_lpn) is None  # lost, not stale
        assert ftl.stats.tombstones_journaled == 1  # ...and durably so
    for _offset, lpn in live:
        if lpn != lost_lpn:
            assert_page_lives_off(ftl, lpn, failed)
    assert_stamps_gap_free(ftl)
    ftl.invariant_check()
