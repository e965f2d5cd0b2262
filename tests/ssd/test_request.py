"""Tests for I/O request objects."""

import pytest

from repro.ssd.request import IoKind, IoRequest


def test_lpns_extent():
    req = IoRequest(IoKind.READ, 10, 3)
    assert req.lpns == [10, 11, 12]


def test_is_write_classification():
    assert IoRequest(IoKind.DIRECT_WRITE, 0, 1).is_write
    assert IoRequest(IoKind.WRITEBACK, 0, 1).is_write
    assert not IoRequest(IoKind.READ, 0, 1).is_write
    assert not IoRequest(IoKind.TRIM, 0, 1).is_write


def test_latency_requires_completion():
    req = IoRequest(IoKind.READ, 0, 1)
    with pytest.raises(ValueError):
        req.latency()
    req.submit_time = 10
    req.complete_time = 35
    assert req.latency() == 25


def test_bytes_size():
    req = IoRequest(IoKind.WRITEBACK, 0, 4)
    assert req.bytes_size(4096) == 16384


def test_validation():
    with pytest.raises(ValueError, match="page_count must be positive, got 0"):
        IoRequest(IoKind.READ, 0, 0)
    with pytest.raises(ValueError, match="page_count must be positive, got -2"):
        IoRequest(IoKind.TRIM, 0, -2)
    with pytest.raises(ValueError, match="lpn must be >= 0, got -1"):
        IoRequest(IoKind.READ, -1, 1)
    with pytest.raises(ValueError, match="page_count"):  # checked first
        IoRequest(IoKind.WRITEBACK, -1, 0)


def test_request_ids_unique():
    a = IoRequest(IoKind.READ, 0, 1)
    b = IoRequest(IoKind.READ, 0, 1)
    assert a.request_id != b.request_id


def test_request_ids_increase_in_construction_order():
    ids = [IoRequest(kind, 3, 2).request_id for kind in list(IoKind) * 2]
    assert ids == list(range(ids[0], ids[0] + 8))


def test_fresh_request_is_unstamped():
    done = []
    by_position = IoRequest(IoKind.WRITEBACK, 4, 2, done.append)
    by_keyword = IoRequest(IoKind.WRITEBACK, 4, 2, on_complete=done.append)
    for req in (by_position, by_keyword):
        assert (req.kind, req.lpn, req.page_count) == (IoKind.WRITEBACK, 4, 2)
        assert req.on_complete == done.append
        assert (req.submit_time, req.start_time, req.complete_time) == (-1, -1, -1)
    assert IoRequest(IoKind.READ, 0, 1).on_complete is None
