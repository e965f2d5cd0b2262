"""Tests for the NAND-resident metadata log: record formats, CRC
rejection of torn/corrupt payloads, tearing, compaction and the
durable-state capture/restore round trip."""

import numpy as np
import pytest

from repro.ftl.metastore import (
    KIND_CHECKPOINT,
    KIND_UNMAP,
    MetaLog,
    build_checkpoint,
    build_tombstones,
    parse_checkpoint,
    parse_tombstones,
)
from repro.nand.metaregion import MetaRegion
from repro.nand.timing import NAND_20NM_MLC

PAGE = 4096


def _log():
    """A log whose reserved blocks never run out in these tests."""
    return MetaLog(PAGE, MetaRegion(blocks=4, pages_per_block=64), NAND_20NM_MLC)


def _checkpoint_payload(generation=1, write_seq=500, user_pages=64, blocks=16):
    rng = np.random.default_rng(generation)
    l2p = rng.integers(-1, blocks * 4, user_pages, dtype=np.int64)
    ptr = rng.integers(0, 4, blocks, dtype=np.int32)
    erases = rng.integers(0, 9, blocks, dtype=np.int64)
    payload = build_checkpoint(generation, write_seq, l2p, ptr, erases, 4)
    return payload, (l2p, ptr, erases)


# ----------------------------------------------------------------------
# Record serialization
# ----------------------------------------------------------------------
def test_checkpoint_round_trips():
    payload, (l2p, ptr, erases) = _checkpoint_payload(generation=7, write_seq=1234)
    image = parse_checkpoint(payload)
    assert image is not None
    assert image.generation == 7
    assert image.write_seq == 1234
    assert image.pages_per_block == 4
    assert image.user_pages == 64 and image.blocks == 16
    assert np.array_equal(image.l2p, l2p)
    assert np.array_equal(image.program_ptr, ptr)
    assert np.array_equal(image.erase_counts, erases)


def test_tombstones_round_trip():
    payload = build_tombstones([3, 17, 3], [100, 101, 102])
    lpns, seqs = parse_tombstones(payload)
    assert lpns.tolist() == [3, 17, 3]
    assert seqs.tolist() == [100, 101, 102]


def test_mismatched_vectors_are_rejected():
    with pytest.raises(ValueError):
        build_tombstones([1, 2], [100])
    with pytest.raises(ValueError):
        build_checkpoint(
            1, 0, np.zeros(4, np.int64), np.zeros(2, np.int32), np.zeros(3, np.int64), 4
        )


@pytest.mark.parametrize("cut", [0, 1, 12, -5, -1])
def test_truncated_payloads_parse_as_torn(cut):
    payload, _ = _checkpoint_payload()
    assert parse_checkpoint(payload[:cut]) is None
    tombs = build_tombstones([1, 2], [10, 11])
    assert parse_tombstones(tombs[:cut]) is None


def test_bitflips_fail_the_crc():
    payload, _ = _checkpoint_payload()
    flipped = bytearray(payload)
    flipped[len(flipped) // 2] ^= 0x40
    assert parse_checkpoint(bytes(flipped)) is None
    tombs = bytearray(build_tombstones([5], [9]))
    tombs[-6] ^= 0x01
    assert parse_tombstones(bytes(tombs)) is None


def test_wrong_magic_is_not_parsed_as_the_other_kind():
    payload, _ = _checkpoint_payload()
    assert parse_tombstones(payload) is None
    tombs = build_tombstones([1], [2])
    assert parse_checkpoint(tombs) is None


# ----------------------------------------------------------------------
# The log: append / tear / compact
# ----------------------------------------------------------------------
def test_append_charges_ceil_pages():
    log = _log()
    first = log.append(KIND_UNMAP, build_tombstones([1], [1]))
    small = first.record
    assert small.pages == 1
    payload, _ = _checkpoint_payload(user_pages=2048, blocks=64)
    second = log.append(KIND_CHECKPOINT, payload, generation=1)
    big = second.record
    assert big.pages == -(-len(payload) // PAGE) > 1
    written = first.pages_programmed + second.pages_programmed
    assert written == small.pages + big.pages
    assert log.pages_held() == written


def test_append_rejects_unknown_kind():
    with pytest.raises(ValueError):
        _log().append("bogus", b"x")


def test_tear_last_truncates_and_marks():
    log = _log()
    payload, _ = _checkpoint_payload(user_pages=4096, blocks=128)
    record = log.append(KIND_CHECKPOINT, payload, generation=1).record
    assert record.pages >= 2
    torn = log.tear_last()
    assert torn is not None and torn.torn
    assert torn.pages < record.pages
    assert len(torn.payload) < len(payload)
    assert parse_checkpoint(torn.payload) is None
    # The log now holds the torn version, not the original.
    assert log.records[-1].torn
    assert _log().tear_last() is None


def test_tear_last_keep_pages_zero_still_occupies_a_page():
    log = _log()
    log.append(KIND_UNMAP, build_tombstones([1], [1]))
    torn = log.tear_last(keep_pages=0)
    assert torn.payload == b"" and torn.pages == 1
    assert parse_tombstones(torn.payload) is None


def test_compact_keeps_two_generations_and_live_tombstones():
    log = _log()
    # gen1 @ H=100, tombstones straddling the horizons, gen2 @ H=200,
    # gen3 @ H=300.  Compaction keeps gen2+gen3; the oldest kept
    # horizon is 200, so only tombstones with max seq >= 200 survive.
    log.append(KIND_CHECKPOINT, _checkpoint_payload(1, 100)[0], generation=1)
    log.append(KIND_UNMAP, build_tombstones([4], [150]))  # folded into gen2
    log.append(KIND_CHECKPOINT, _checkpoint_payload(2, 200)[0], generation=2)
    log.append(KIND_UNMAP, build_tombstones([5], [250]))  # still live
    log.append(KIND_CHECKPOINT, _checkpoint_payload(3, 300)[0], generation=3)
    dropped = log.compact()
    assert dropped == 2
    kinds = [(r.kind, r.generation) for r in log.records]
    assert (KIND_CHECKPOINT, 1) not in kinds
    assert (KIND_CHECKPOINT, 2) in kinds and (KIND_CHECKPOINT, 3) in kinds
    assert sum(1 for r in log.records if r.kind == KIND_UNMAP) == 1


def test_compact_never_counts_a_torn_checkpoint_as_kept():
    log = _log()
    log.append(KIND_CHECKPOINT, _checkpoint_payload(1, 100)[0], generation=1)
    log.append(KIND_CHECKPOINT, _checkpoint_payload(2, 200)[0], generation=2)
    log.append(KIND_CHECKPOINT, _checkpoint_payload(3, 300)[0], generation=3)
    log.tear_last()
    log.compact()
    # The torn gen3 is dropped, gens 1+2 are the two complete survivors.
    gens = [r.generation for r in log.records if r.kind == KIND_CHECKPOINT]
    assert gens == [1, 2]


def test_compact_without_a_complete_checkpoint_keeps_everything():
    log = _log()
    log.append(KIND_UNMAP, build_tombstones([1], [10]))
    log.append(KIND_CHECKPOINT, _checkpoint_payload(1, 50)[0], generation=1)
    log.tear_last()
    assert log.compact() == 0
    assert len(log.records) == 2


def test_compact_keeps_tombstones_until_an_older_checkpoint_covers_them():
    # The newest checkpoint may still tear: alone, it covers nothing.
    log = _log()
    log.append(KIND_UNMAP, build_tombstones([1], [10]))
    log.append(KIND_CHECKPOINT, _checkpoint_payload(1, 50)[0], generation=1)
    assert log.compact() == 0
    log.append(KIND_CHECKPOINT, _checkpoint_payload(2, 60)[0], generation=2)
    assert log.compact() == 1  # gen1 now covers the tombstone
    assert [r.generation for r in log.records] == [1, 2]


def test_capture_restore_round_trip():
    log = _log()
    log.append(KIND_CHECKPOINT, _checkpoint_payload(1, 100)[0], generation=1)
    log.append(KIND_UNMAP, build_tombstones([2], [150]))
    log.tear_last(keep_pages=0)
    snapshot = log.capture()
    clone = _log()
    clone.load(snapshot)
    assert clone.records == log.records
    assert clone.pages_held() == log.pages_held()
    # Appends after restore continue the sequence, not restart it.
    record = clone.append(KIND_UNMAP, build_tombstones([3], [160])).record
    assert record.seq == log.records[-1].seq + 1
    # The snapshot is immutable: the original log is unaffected.
    assert len(log.records) == 2


# ----------------------------------------------------------------------
# Parse once per record
# ----------------------------------------------------------------------
def test_a_torn_copy_never_inherits_the_parse_of_the_record_it_tore():
    log = _log()
    payload, (l2p, _, _) = _checkpoint_payload(user_pages=4096, blocks=128)
    record = log.append(KIND_CHECKPOINT, payload, generation=1).record
    assert np.array_equal(record.parsed.l2p, l2p)  # parsed before the cut
    torn = log.tear_last()
    assert torn.parsed is None
    assert record.parsed is not None  # the complete original is untouched

    log.append(KIND_UNMAP, build_tombstones([1, 2], [7, 8]))
    lpns, seqs = log.records[-1].parsed
    assert lpns.tolist() == [1, 2] and seqs.tolist() == [7, 8]
    assert log.tear_last(keep_pages=0).parsed is None


def test_a_restored_log_shares_parses_with_the_log_it_was_captured_from():
    log = _log()
    log.append(KIND_CHECKPOINT, _checkpoint_payload(1, 100)[0], generation=1)
    log.append(KIND_UNMAP, build_tombstones([2], [150]))
    clone = _log()
    clone.load(log.capture())
    for ours, theirs in zip(log.records, clone.records):
        assert ours.parsed is theirs.parsed
    # Shared means nobody may write through it: the arrays are read-only
    # views of the immutable payload.
    image = clone.records[0].parsed
    with pytest.raises(ValueError):
        image.l2p[0] = 5
    with pytest.raises(ValueError):
        clone.records[1].parsed[0][0] = 5
