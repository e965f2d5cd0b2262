"""A host command the FTL rejects changes nothing.

An out-of-range write, a TRIM naming one bad LPN and a negative page
count are refused before the first state change: the NAND image, the
write-sequence counter and the mapping stay as they were, and the next
power-on rebuilds the mapping the device had.
"""

import numpy as np
import pytest

from repro.ssd.config import SsdConfig

MAPPINGS = ["dram", "dftl"]


def written_ftl(mapping):
    config = SsdConfig.small(blocks=64, pages_per_block=16, mapping_mode=mapping)
    ftl = config.build_ftl()
    ftl.host_write_extent(0, 40)
    for lpn in range(0, 40, 3):
        ftl.host_write_page(lpn)
    ftl.trim([1, 2])
    return config, ftl


def state(ftl):
    """What a rejected command must leave alone."""
    durable = ftl.nand.capture_durable_state()
    return (
        ftl._write_seq,
        ftl._op_counter,
        ftl.stats,
        ftl.page_map.l2p_snapshot().tobytes(),
        durable.program_ptr.tobytes(),
        durable.oob_lpn.tobytes(),
        durable.oob_seq.tobytes(),
        durable.meta.records,
    )


def assert_unchanged_and_powers_on(config, ftl, before):
    assert state(ftl) == before
    ftl.invariant_check()
    recovered, _ = config.recover_from(ftl.nand.capture_durable_state())
    assert np.array_equal(recovered.page_map.l2p_view(), ftl.page_map.l2p_view())
    assert recovered._write_seq == ftl._write_seq


@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize(
    "write",
    [
        lambda ftl, user: ftl.host_write_page(-1),
        lambda ftl, user: ftl.host_write_page(user),
        lambda ftl, user: ftl.host_write_extent(user - 2, 4),
        lambda ftl, user: ftl.host_write_extent(-1, 4),
    ],
    ids=["page-below", "page-past-end", "extent-across-end", "extent-below"],
)
def test_rejected_write_touches_nothing(mapping, write):
    config, ftl = written_ftl(mapping)
    before = state(ftl)
    with pytest.raises(IndexError):
        write(ftl, ftl.space.user_pages)
    assert_unchanged_and_powers_on(config, ftl, before)


@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize("bad", [-1, "past-end"])
def test_trim_with_one_bad_lpn_unmaps_nothing(mapping, bad):
    config, ftl = written_ftl(mapping)
    if bad == "past-end":
        bad = ftl.space.user_pages + 5
    before = state(ftl)
    with pytest.raises(IndexError):
        ftl.trim([0, 5, bad])
    assert ftl.page_map.lookup(0) is not None
    assert_unchanged_and_powers_on(config, ftl, before)


@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize("command", ["host_read_extent", "host_write_extent"])
def test_negative_page_count_is_rejected(mapping, command):
    config, ftl = written_ftl(mapping)
    before = state(ftl)
    with pytest.raises(ValueError, match="page count"):
        getattr(ftl, command)(5, -3)
    assert_unchanged_and_powers_on(config, ftl, before)


@pytest.mark.parametrize("mapping", MAPPINGS)
def test_a_negative_lookup_extent_is_rejected(mapping):
    config, ftl = written_ftl(mapping)
    before = state(ftl)
    with pytest.raises(ValueError, match="page count"):
        ftl.host_read_extent(5, -3)
    assert_unchanged_and_powers_on(config, ftl, before)
