"""Tests for the NAND power-loss substrate: torn pages, per-page OOB
stamping and the durable-state capture/restore cycle."""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector, FaultProfile
from repro.nand.array import OOB_UNSTAMPED, BlockState, NandArray
from repro.nand.errors import ProgramFailError
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=8)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


def make_array(**kwargs):
    return NandArray(GEOMETRY, TIMING, **kwargs)


def power_on(state):
    """A first-boot array powered on over ``state``."""
    return make_array(durable=state)


# ----------------------------------------------------------------------
# OOB stamping
# ----------------------------------------------------------------------
def test_program_stamps_oob_on_success():
    nand = make_array()
    nand.program_page(0, 0, lpn=17, seq=5)
    assert nand.oob_lpn[0] == 17
    assert nand.oob_seq[0] == 5


def test_program_without_seq_leaves_oob_unstamped():
    nand = make_array()
    nand.program_page(0, 0)
    assert nand.oob_lpn[0] == OOB_UNSTAMPED
    assert nand.oob_seq[0] == OOB_UNSTAMPED


def test_failed_program_consumes_page_but_never_stamps():
    injector = FaultInjector(FaultProfile(program_fail_prob=1.0), seed=0)
    nand = make_array(fault_injector=injector)
    with pytest.raises(ProgramFailError):
        nand.program_page(0, 0, lpn=9, seq=1)
    # The page is burnt (sequential-programming pointer advanced) yet
    # carries no stamp -- recovery must treat it exactly like torn.
    assert nand.next_programmable_page(0) == 1
    assert nand.oob_seq[0] == OOB_UNSTAMPED


def test_erase_clears_oob():
    nand = make_array()
    for page in range(4):
        nand.program_page(1, page, lpn=page, seq=page)
    nand.erase_block(1)
    start = 1 * GEOMETRY.pages_per_block
    assert (nand.oob_seq[start:start + 4] == OOB_UNSTAMPED).all()
    assert (nand.oob_lpn[start:start + 4] == OOB_UNSTAMPED).all()


def test_batch_program_stamps_contiguous_oob():
    nand = make_array()
    nand.program_pages_batch(2, 0, 3, first_lpn=40, first_seq=100)
    base = 2 * GEOMETRY.pages_per_block
    assert list(nand.oob_lpn[base:base + 3]) == [40, 41, 42]
    assert list(nand.oob_seq[base:base + 3]) == [100, 101, 102]
    assert nand.batch_programs == 1


# ----------------------------------------------------------------------
# Torn pages
# ----------------------------------------------------------------------
def test_tear_frontier_page_consumes_without_stamp():
    nand = make_array()
    nand.program_page(0, 0, lpn=1, seq=1)
    nand.program_page(0, 1, lpn=2, seq=2)
    page = nand.tear_frontier_page(0)
    assert page == 2
    assert nand.next_programmable_page(0) == 3
    assert nand.block_state(0) == BlockState.OPEN
    assert nand.oob_seq[2] == OOB_UNSTAMPED
    assert nand.torn_pages == 1


def test_tear_last_page_fills_block():
    nand = make_array()
    for page in range(3):
        nand.program_page(0, page, lpn=page, seq=page)
    assert nand.tear_frontier_page(0) == 3
    assert nand.block_state(0) == BlockState.FULL


def test_tear_refuses_full_and_bad_blocks():
    nand = make_array()
    for page in range(4):
        nand.program_page(0, page)
    assert nand.tear_frontier_page(0) is None
    nand.mark_bad(1)
    assert nand.tear_frontier_page(1) is None
    assert nand.tear_frontier_page(-1) is None
    assert nand.torn_pages == 0


# ----------------------------------------------------------------------
# Durable capture / restore
# ----------------------------------------------------------------------
def _exercise(nand):
    for page in range(4):
        nand.program_page(0, page, lpn=page, seq=page)
    nand.erase_block(0)
    nand.program_page(0, 0, lpn=7, seq=10)
    nand.program_page(3, 0, lpn=8, seq=11)
    nand.mark_bad(5)
    nand.tear_frontier_page(3)


def test_capture_restore_roundtrip():
    nand = make_array()
    _exercise(nand)
    state = nand.capture_durable_state()
    copy = power_on(state)
    assert np.array_equal(copy.block_states, nand.block_states)
    assert np.array_equal(copy.program_ptr, nand.program_ptr)
    assert np.array_equal(copy.oob_lpn, nand.oob_lpn)
    assert np.array_equal(copy.oob_seq, nand.oob_seq)
    assert np.array_equal(copy.erase_counts, nand.erase_counts)
    assert copy.is_bad(5) and copy.grown_bad_blocks == 1
    assert copy.torn_pages == nand.torn_pages
    assert copy.endurance.total_erases == nand.endurance.total_erases
    # Volatile op counters start at zero on the powered-on copy.
    assert copy.page_programs == 0


def test_captured_state_is_isolated_from_live_array():
    nand = make_array()
    _exercise(nand)
    state = nand.capture_durable_state()
    before = state.program_ptr.copy()
    nand.program_page(3, 2, lpn=9, seq=12)
    nand.erase_block(1)
    assert np.array_equal(state.program_ptr, before)
    copy = power_on(state)
    copy.erase_block(3)
    assert nand.next_programmable_page(3) == 3


def test_factory_bad_marks_survive_as_factory():
    nand = NandArray(GEOMETRY, TIMING, initial_bad_blocks=[2])
    nand.mark_bad(6)
    copy = power_on(nand.capture_durable_state())
    assert copy.factory_bad[2] and not copy.factory_bad[6]
    assert copy.factory_bad_blocks == 1
    assert copy.grown_bad_blocks == 1
