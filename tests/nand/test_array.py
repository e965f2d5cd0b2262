"""Tests for the NAND array state machine: erase-before-write, program
order, bad blocks and operation counting."""

import pytest

from repro.nand.array import STATE_BAD, BlockState, NandArray
from repro.nand.endurance import EnduranceModel
from repro.nand.errors import (
    AddressError,
    BadBlockError,
    EraseBeforeWriteError,
    ProgramOrderError,
)
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=8)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


def make_array(**kwargs):
    return NandArray(GEOMETRY, TIMING, **kwargs)


def test_initial_state_all_erased():
    nand = make_array()
    for block in range(GEOMETRY.total_blocks):
        assert nand.block_state(block) == BlockState.ERASED
        assert nand.next_programmable_page(block) == 0


def test_program_returns_latency_and_advances_frontier():
    nand = make_array()
    assert nand.program_page(0, 0) == 100
    assert nand.next_programmable_page(0) == 1
    assert nand.block_state(0) == BlockState.OPEN


def test_block_becomes_full():
    nand = make_array()
    for page in range(4):
        nand.program_page(2, page)
    assert nand.block_state(2) == BlockState.FULL


def test_out_of_order_program_rejected():
    nand = make_array()
    nand.program_page(0, 0)
    with pytest.raises(ProgramOrderError):
        nand.program_page(0, 2)


def test_reprogram_without_erase_rejected():
    nand = make_array()
    nand.program_page(0, 0)
    with pytest.raises(EraseBeforeWriteError):
        nand.program_page(0, 0)


def test_erase_resets_frontier():
    nand = make_array()
    for page in range(4):
        nand.program_page(1, page)
    assert nand.erase_block(1) == 1000
    assert nand.block_state(1) == BlockState.ERASED
    assert nand.next_programmable_page(1) == 0
    nand.program_page(1, 0)  # programmable again


def test_read_latency_and_counter():
    nand = make_array()
    nand.program_page(0, 0)
    assert nand.read_page(0, 0) == 10
    assert nand.page_reads == 1


def test_operation_counters():
    nand = make_array()
    nand.program_page(0, 0)
    nand.program_page(0, 1)
    nand.read_page(0, 0)
    nand.erase_block(0)
    assert nand.page_programs == 2
    assert nand.page_reads == 1
    assert nand.block_erases == 1


def test_factory_bad_blocks_rejected_everywhere():
    nand = make_array(initial_bad_blocks=[3])
    assert nand.is_bad(3)
    with pytest.raises(BadBlockError):
        nand.program_page(3, 0)
    with pytest.raises(BadBlockError):
        nand.read_page(3, 0)
    with pytest.raises(BadBlockError):
        nand.erase_block(3)


def test_wear_out_marks_block_bad():
    endurance = EnduranceModel(GEOMETRY.total_blocks, pe_cycle_limit=2)
    nand = NandArray(GEOMETRY, TIMING, endurance)
    nand.erase_block(0)
    assert not nand.is_bad(0)
    nand.erase_block(0)
    assert nand.is_bad(0)
    assert nand.good_blocks() == GEOMETRY.total_blocks - 1


def test_endurance_size_mismatch_rejected():
    wrong = EnduranceModel(GEOMETRY.total_blocks + 1)
    with pytest.raises(ValueError):
        NandArray(GEOMETRY, TIMING, wrong)


def test_wear_stats_reflect_erases():
    nand = make_array()
    nand.erase_block(0)
    nand.erase_block(0)
    nand.erase_block(1)
    stats = nand.wear_stats()
    assert stats.total_erases == 3
    assert stats.max_erase_count == 2
    assert stats.min_erase_count == 0


def test_factory_and_grown_bad_block_counters():
    nand = make_array(initial_bad_blocks=[3, 5, 3])  # duplicate counted once
    assert nand.factory_bad_blocks == 2
    assert nand.grown_bad_blocks == 0
    nand.mark_bad(0)
    nand.mark_bad(0)  # idempotent
    assert nand.grown_bad_blocks == 1
    assert nand.is_bad(0)
    assert nand.good_blocks() == GEOMETRY.total_blocks - 3


def test_is_bad_agrees_with_both_bad_block_records():
    """``is_bad`` reads the one-byte mirror; the state vector is the
    authority.  They must agree wherever a block can turn bad."""

    def check(nand, expected):
        for block in range(GEOMETRY.total_blocks):
            verdict = nand.is_bad(block)
            assert verdict is (block in expected)
            assert verdict == (nand.block_states[block] == STATE_BAD)
            assert verdict == bool(nand._bad[block])
            assert verdict == (nand.block_state(block) == BlockState.BAD)

    endurance = EnduranceModel(GEOMETRY.total_blocks, pe_cycle_limit=2)
    nand = NandArray(GEOMETRY, TIMING, endurance, initial_bad_blocks=[3, 5])
    check(nand, {3, 5})                      # factory marks
    nand.mark_bad(0)
    check(nand, {0, 3, 5})                   # a grown mark
    nand.erase_block(6)
    check(nand, {0, 3, 5})
    nand.erase_block(6)
    check(nand, {0, 3, 5, 6})                # a wear-out erase
    restored = NandArray.from_durable(
        GEOMETRY, nand.capture_durable_state(), timing=TIMING, pe_cycle_limit=2
    )
    check(restored, {0, 3, 5, 6})            # across a power cut
    for block in (-1, GEOMETRY.total_blocks):
        with pytest.raises(AddressError):
            nand.is_bad(block)


def test_mark_bad_rejects_all_operations():
    nand = make_array()
    nand.mark_bad(1)
    with pytest.raises(BadBlockError):
        nand.program_page(1, 0)
    with pytest.raises(BadBlockError):
        nand.erase_block(1)


def test_reread_page_without_injector_succeeds():
    nand = make_array()
    nand.program_page(0, 0)
    assert nand.reread_page(0, 0) == TIMING.read_ns
    assert nand.page_reads == 1


def test_injected_program_fail_consumes_frontier_page():
    from repro.faults.injector import FaultInjector, FaultProfile
    from repro.nand.errors import ProgramFailError

    injector = FaultInjector(FaultProfile(program_fail_prob=1.0), seed=0)
    nand = make_array(fault_injector=injector)
    with pytest.raises(ProgramFailError):
        nand.program_page(0, 0)
    # The spoiled page can never be reprogrammed without an erase.
    assert nand.next_programmable_page(0) == 1
    assert nand.page_programs == 0


def test_injected_erase_fail_keeps_contents_and_stresses_cells():
    from repro.faults.injector import FaultInjector, FaultProfile
    from repro.nand.errors import EraseFailError

    injector = FaultInjector(FaultProfile(erase_fail_prob=1.0), seed=0)
    nand = make_array(fault_injector=injector)
    nand.program_page(0, 0)
    with pytest.raises(EraseFailError):
        nand.erase_block(0)
    # Frontier untouched, but the failed erase still counted as a cycle.
    assert nand.next_programmable_page(0) == 1
    assert nand.endurance.erase_count(0) == 1
    assert nand.block_erases == 0


def test_injected_uncorrectable_read():
    from repro.faults.injector import FaultInjector, FaultProfile
    from repro.nand.errors import UncorrectableReadError

    injector = FaultInjector(FaultProfile(read_uncorrectable_prob=1.0), seed=0)
    nand = make_array(fault_injector=injector)
    nand.program_page(0, 0)
    with pytest.raises(UncorrectableReadError) as excinfo:
        nand.read_page(0, 0)
    assert excinfo.value.latency_ns == TIMING.read_ns
