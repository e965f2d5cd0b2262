"""Tests for the NAND reliability models."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.ftl.scrub import RefreshScrubber
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.reliability import (
    BitErrorModel,
    EccConfig,
    ReadDisturbTracker,
    ReliabilityProfile,
)
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=8)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


# ----------------------------------------------------------------------
# BitErrorModel
# ----------------------------------------------------------------------
def test_rber_monotone_in_wear():
    model = BitErrorModel()
    fresh = model.rber(0)
    worn = model.rber(3000)
    assert fresh < worn
    assert fresh == pytest.approx(model.base_rber * 1.0, rel=1e-6)


def test_rber_monotone_in_retention_and_disturbs():
    model = BitErrorModel()
    base = model.rber(1000)
    assert model.rber(1000, retention_s=10**7) > base
    assert model.rber(1000, read_disturbs=10**5) > base


def test_rber_capped_at_half():
    model = BitErrorModel()
    assert model.rber(10**9, retention_s=10**12, read_disturbs=10**9) == 0.5


def test_rber_validation():
    model = BitErrorModel()
    with pytest.raises(ValueError):
        model.rber(-1)
    with pytest.raises(ValueError):
        BitErrorModel(base_rber=0)


# ----------------------------------------------------------------------
# EccConfig
# ----------------------------------------------------------------------
def test_ecc_zero_rber_never_fails():
    ecc = EccConfig()
    assert ecc.codeword_failure_probability(0.0) == 0.0
    assert ecc.page_failure_probability(0.0) == 0.0


def test_ecc_failure_monotone_in_rber():
    ecc = EccConfig(codeword_bytes=512, correctable_bits=8)
    low = ecc.codeword_failure_probability(1e-5)
    high = ecc.codeword_failure_probability(1e-3)
    assert 0.0 <= low < high <= 1.0


def test_ecc_stronger_correction_fails_less():
    weak = EccConfig(codeword_bytes=512, correctable_bits=4)
    strong = EccConfig(codeword_bytes=512, correctable_bits=40)
    rber = 1e-3
    assert strong.codeword_failure_probability(rber) < weak.codeword_failure_probability(rber)


def test_page_failure_aggregates_codewords():
    ecc = EccConfig(codeword_bytes=1024, correctable_bits=4)
    rber = 2e-3
    per_codeword = ecc.codeword_failure_probability(rber)
    per_page = ecc.page_failure_probability(rber, page_bytes=4096)
    assert per_page >= per_codeword
    assert per_page == pytest.approx(1 - (1 - per_codeword) ** 4)


def test_ecc_validation():
    with pytest.raises(ValueError):
        EccConfig(codeword_bytes=0)
    ecc = EccConfig()
    with pytest.raises(ValueError):
        ecc.codeword_failure_probability(1.5)


def test_end_of_life_story():
    """A worn, long-retained block must look much riskier than a fresh
    one -- the quantitative link from WAF to lifetime.  Uses a weak ECC
    so the probabilities stay in floating-point range."""
    model = BitErrorModel()
    ecc = EccConfig(codeword_bytes=512, correctable_bits=4)
    fresh = ecc.page_failure_probability(model.rber(100, retention_s=86_400))
    eol = ecc.page_failure_probability(model.rber(3000, retention_s=3 * 10**7))
    assert eol > fresh
    assert eol > 1e-9


# ----------------------------------------------------------------------
# ReadDisturbTracker (+ NandArray integration)
# ----------------------------------------------------------------------
def test_tracker_threshold():
    tracker = ReadDisturbTracker(4, scrub_threshold=3)
    assert tracker.record_read(0) is False
    assert tracker.record_read(0) is False
    assert tracker.record_read(0) is True
    assert tracker.blocks_needing_scrub() == [0]
    tracker.reset(0)
    assert tracker.blocks_needing_scrub() == []


def test_tracker_validation():
    with pytest.raises(ValueError):
        ReadDisturbTracker(0)
    with pytest.raises(ValueError):
        ReadDisturbTracker(4, scrub_threshold=0)


def test_nand_integration_counts_and_resets():
    tracker = ReadDisturbTracker(GEOMETRY.total_blocks, scrub_threshold=2)
    nand = NandArray(GEOMETRY, TIMING, read_disturb=tracker)
    nand.program_page(0, 0)
    nand.read_page(0, 0)
    nand.read_page(0, 0)
    assert tracker.blocks_needing_scrub() == [0]
    assert tracker.max_reads() == 2
    nand.erase_block(0)
    assert tracker.blocks_needing_scrub() == []


# ----------------------------------------------------------------------
# The counter table and its NumPy view
# ----------------------------------------------------------------------
def _drive(tracker, mirror, steps):
    """Apply ``steps`` to ``tracker`` and to ``mirror``, a plain int64
    vector standing for the counters as a NumPy array alone kept them."""
    for op, block, count in steps:
        if op == "read":
            due = tracker.record_read(block)
            mirror[block] += 1
        elif op == "reads":
            due = tracker.record_reads(block, count)
            mirror[block] += count
        else:
            tracker.reset(block)
            mirror[block] = 0
            continue
        assert due is bool(mirror[block] >= tracker.scrub_threshold)


STEPS = [
    ("read", 0, 1), ("reads", 3, 5), ("read", 3, 1), ("reads", 7, 2),
    ("reset", 3, 0), ("read", 7, 1), ("reads", 0, 4), ("read", 6, 1),
]


def test_counter_table_and_view_agree_after_every_update():
    tracker = ReadDisturbTracker(GEOMETRY.total_blocks, scrub_threshold=3)
    mirror = np.zeros(GEOMETRY.total_blocks, dtype=np.int64)
    for step in STEPS:
        _drive(tracker, mirror, [step])
        assert tracker.counts.tolist() == tracker.read_counts.tolist() == mirror.tolist()
    # One buffer: a write through the view shows in the table.
    tracker.read_counts[5] = 9
    assert tracker.counts[5] == 9
    assert tracker.read_counts.dtype == np.int64


def test_scrub_queries_read_what_a_plain_vector_would():
    tracker = ReadDisturbTracker(GEOMETRY.total_blocks, scrub_threshold=3)
    mirror = np.zeros(GEOMETRY.total_blocks, dtype=np.int64)
    _drive(tracker, mirror, STEPS)
    assert tracker.blocks_needing_scrub() == np.flatnonzero(mirror >= 3).tolist() == [0, 7]
    assert tracker.max_reads() == int(mirror.max()) == 5
    profile = ReliabilityProfile(disturb_threshold=3, retention_threshold_s=1e12)
    scrubber = RefreshScrubber(profile)
    nand = SimpleNamespace(
        read_disturb=tracker,
        last_program_ns=np.zeros(GEOMETRY.total_blocks, dtype=np.int64),
    )
    ftl = SimpleNamespace(nand=nand, _closed=np.ones(GEOMETRY.total_blocks, dtype=bool))
    at_risk = np.flatnonzero(mirror >= 3)
    assert scrubber._segment_at_risk(ftl, 0, GEOMETRY.total_blocks, 0).tolist() == (
        at_risk.tolist()
    )
    assert scrubber._segment_at_risk(ftl, 4, 8, 0).tolist() == [7]
    assert [b for b in range(GEOMETRY.total_blocks) if scrubber.block_at_risk(ftl, b, 0)] == (
        at_risk.tolist()
    )


def test_every_power_on_starts_the_counters_at_zero():
    config = SsdConfig.small(blocks=16, pages_per_block=4, reliability="mlc-20nm")
    ftl = config.build_ftl()
    for lpn in range(8):
        ftl.host_write_page(lpn)
    ftl.host_read_extent(0, 8)
    ftl.host_read_extent(0, 8)
    live = ftl.nand.read_disturb
    assert sum(live.counts) == 16
    for nand in (config.build_nand(), config.restore_nand(ftl.nand.capture_durable_state())):
        tracker = nand.read_disturb
        assert tracker is not live and tracker.counts is not live.counts
        assert sum(tracker.counts) == 0 and int(tracker.read_counts.max(initial=0)) == 0
    assert sum(live.counts) == 16  # the old table is left as it was
