"""Tests for the NAND timing model and generation presets."""

import pytest

from repro.nand.timing import (
    NAND_130NM_SLC,
    NAND_20NM_MLC,
    NAND_25NM_MLC,
    NandTiming,
)
from repro.sim.simtime import MICROSECOND


def test_composite_costs():
    t = NandTiming(
        read_ns=50, program_ns=1000, erase_ns=5000, transfer_ns_per_page=10
    )
    assert t.host_program_ns() == 1010
    assert t.migrate_page_ns() == 1050


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        NandTiming(read_ns=-1)


def test_generation_trend_matches_paper():
    """Paper Sec 1: program time grows sharply across generations."""
    assert NAND_130NM_SLC.program_ns < NAND_25NM_MLC.program_ns
    assert NAND_130NM_SLC.program_ns == 200 * MICROSECOND
    assert NAND_25NM_MLC.program_ns == 2300 * MICROSECOND


def test_default_preset_is_20nm_mlc_class():
    assert NAND_20NM_MLC.program_ns > 1000 * MICROSECOND
    assert NAND_20NM_MLC.erase_ns > NAND_20NM_MLC.program_ns


def test_timing_is_frozen():
    with pytest.raises(Exception):
        NAND_20NM_MLC.read_ns = 1  # type: ignore[misc]
