"""Golden bit-identity: every pinned cell reproduces its fixture exactly.

A failure here means simulated behaviour changed.  A refactor must not
touch the fixtures; a PR that changes behaviour on purpose regenerates
them (``python -m tests.golden.cells``) and says why.
"""

import json

import pytest

from tests.golden.cells import CELLS, fixture_path, run_cell

#: Counters that must be non-zero per cell -- proof that the paths the
#: cell exists to pin (frontier retirement on each stream, translation
#: writeback and GC, scrub, checkpointing, live power cuts) actually ran.
EXERCISED = {
    "dram_jit_ycsb": [
        ("ftl_stats", "fgc_blocks_collected"),
        ("ftl_stats", "bgc_blocks_collected"),
        ("metrics", "gc_pages_migrated"),
    ],
    "dftl_reliability_adaptive": [
        ("ftl_stats", "cmt_evictions"),
        ("ftl_stats", "trans_pages_written"),
        ("ftl_stats", "trans_pages_migrated"),
        ("ftl_stats", "checkpoints_written"),
        ("ftl_stats", "scrub_blocks_refreshed"),
        ("ftl_stats", "ecc_retry_reads"),
    ],
    "dftl_faults_still_writable": [
        ("ftl_stats", "program_faults"),
        ("ftl_stats", "erase_faults"),
        ("ftl_stats", "blocks_retired"),
        ("ftl_stats", "read_retries"),
        ("ftl_stats", "uncorrectable_reads"),
        ("ftl_stats", "trans_pages_migrated"),
        ("ftl_stats", "cmt_evictions"),
    ],
    "dram_trim_checkpoint_spo": [
        ("metrics", "spo_count"),
        ("metrics", "recovery_time_ns"),
        ("metrics", "trim_count"),
    ],
    "dftl_analytic_warm_start": [
        ("ftl_stats", "cmt_evictions"),
        ("ftl_stats", "trans_pages_migrated"),
        ("metrics", "gc_pages_migrated"),
    ],
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_is_bit_identical_to_its_fixture(name):
    expected = json.loads(fixture_path(name).read_text())
    for section, counter in EXERCISED[name]:
        assert expected[section][counter] > 0, f"{section}.{counter} never ran"
    actual = run_cell(name)
    assert actual.keys() == expected.keys()
    for section in expected:
        assert actual[section] == expected[section], f"{name}: {section} drifted"


def test_fault_cell_ends_writable_and_spo_cell_tears_two_frontiers():
    faults = json.loads(fixture_path("dftl_faults_still_writable").read_text())
    assert not faults["metrics"]["device_read_only"]
    spo = json.loads(fixture_path("dram_trim_checkpoint_spo").read_text())
    # Dram mode has exactly two open write streams to tear.
    assert [len(torn) for torn in spo["torn"]] == [2]
    assert spo["recoveries"][0][0] is False  # checkpoint-bounded, not a full scan
