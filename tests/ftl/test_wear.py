"""Tests for wear-aware allocation and static wear levelling."""

import numpy as np
import pytest

from repro.ftl.wear import StaticWearLeveler, WearAwareAllocator
from repro.nand.endurance import EnduranceModel


def test_allocate_least_worn_first():
    endurance = EnduranceModel(4, pe_cycle_limit=None)
    endurance.record_erase(0)
    endurance.record_erase(0)
    endurance.record_erase(1)
    allocator = WearAwareAllocator(endurance, initial_free=[0, 1, 2])
    assert allocator.allocate() == 2  # 0 erases
    assert allocator.allocate() == 1  # 1 erase
    assert allocator.allocate() == 0  # 2 erases
    assert allocator.allocate() is None


def test_tie_breaks_by_block_number():
    endurance = EnduranceModel(4, pe_cycle_limit=None)
    allocator = WearAwareAllocator(endurance, initial_free=[3, 1, 2])
    assert allocator.allocate() == 1


def test_release_and_membership():
    endurance = EnduranceModel(4, pe_cycle_limit=None)
    allocator = WearAwareAllocator(endurance)
    assert len(allocator) == 0
    allocator.release(2)
    assert 2 in allocator
    assert len(allocator) == 1
    with pytest.raises(ValueError):
        allocator.release(2)  # double release


def test_reuse_after_allocate():
    endurance = EnduranceModel(2, pe_cycle_limit=None)
    allocator = WearAwareAllocator(endurance, initial_free=[0, 1])
    block = allocator.allocate()
    endurance.record_erase(block)
    allocator.release(block)
    assert len(allocator) == 2
    # Block 1 (0 erases) now beats the re-released block (1 erase).
    assert allocator.allocate() == 1


def test_leveler_threshold():
    endurance = EnduranceModel(4, pe_cycle_limit=None)
    leveler = StaticWearLeveler(endurance, threshold=2)
    blocks = np.array([0, 1])
    assert not leveler.needs_levelling(blocks)
    for _ in range(3):
        endurance.record_erase(0)
    assert leveler.needs_levelling(blocks)


def test_leveler_picks_coldest():
    endurance = EnduranceModel(4, pe_cycle_limit=None)
    for _ in range(5):
        endurance.record_erase(0)
    endurance.record_erase(1)
    leveler = StaticWearLeveler(endurance, threshold=1)
    assert leveler.pick_cold_block(np.array([0, 1, 2])) == 2
    assert leveler.invocations == 1


def test_leveler_empty_input():
    endurance = EnduranceModel(2, pe_cycle_limit=None)
    leveler = StaticWearLeveler(endurance)
    assert not leveler.needs_levelling(np.array([], dtype=int))
    assert leveler.pick_cold_block(np.array([], dtype=int)) is None


def test_leveler_invalid_threshold():
    endurance = EnduranceModel(2, pe_cycle_limit=None)
    with pytest.raises(ValueError):
        StaticWearLeveler(endurance, threshold=0)


def test_initial_pool_refuses_a_block_twice():
    endurance = EnduranceModel(4, pe_cycle_limit=None)
    with pytest.raises(ValueError, match="lists a block twice"):
        WearAwareAllocator(endurance, initial_free=[1, 2, 1])
