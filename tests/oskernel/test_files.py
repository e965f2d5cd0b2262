"""Tests for the extent-based file layer."""

import pytest

from repro.oskernel.cache import PageCache
from repro.oskernel.files import FsError, SimpleFileSystem
from repro.oskernel.iopath import IoDispatcher
from repro.sim.engine import Simulator
from repro.ssd.config import SsdConfig
from repro.ssd.device import SsdDevice


def make_fs(page_count=200, journal_pages=16, journal_record_pages=1):
    sim = Simulator()
    device = SsdDevice(sim, SsdConfig.small(blocks=64, pages_per_block=8))
    cache = PageCache(4096, 4096 * 512, device.ftl.space.user_pages)
    dispatcher = IoDispatcher(sim, cache, device)
    fs = SimpleFileSystem(
        dispatcher, first_lpn=0, page_count=page_count,
        journal_pages=journal_pages, journal_record_pages=journal_record_pages,
    )
    return sim, device, dispatcher, fs


def test_create_allocates_and_journals():
    sim, device, dispatcher, fs = make_fs()
    done = []
    fid = fs.create(8, on_complete=lambda: done.append(1))
    sim.run()
    assert done == [1]
    assert fs.file_count == 1
    assert fs.file_pages(fid) == 8
    assert fs.journal_writes == 1
    assert dispatcher.stats.direct_ops == 1  # the journal commit
    assert dispatcher.stats.buffered_ops == 1  # the data


def test_create_zero_size_rejected():
    _, _, _, fs = make_fs()
    with pytest.raises(FsError):
        fs.create(0)


def test_delete_trims_and_frees():
    sim, device, _, fs = make_fs()
    fid = fs.create(8)
    sim.run()
    free_before = fs.free_pages()
    fs.delete(fid)
    sim.run()
    assert fs.file_count == 0
    assert fs.free_pages() == free_before + 8
    with pytest.raises(FsError):
        fs.delete(fid)


def test_append_grows_and_relocates():
    sim, _, _, fs = make_fs()
    fid = fs.create(4)
    sim.run()
    fs.append(fid, 4)
    sim.run()
    assert fs.file_pages(fid) == 8


def test_overwrite_bounds_checked():
    sim, _, _, fs = make_fs()
    fid = fs.create(4)
    sim.run()
    fs.overwrite(fid, 0, 4)
    with pytest.raises(FsError):
        fs.overwrite(fid, 2, 4)


def test_read_bounds_checked():
    sim, _, _, fs = make_fs()
    fid = fs.create(4)
    sim.run()
    done = []
    fs.read(fid, 0, 4, on_complete=lambda: done.append(1))
    sim.run()
    assert done == [1]
    with pytest.raises(FsError):
        fs.read(fid, 3, 4)


def test_free_list_coalescing():
    sim, _, _, fs = make_fs(page_count=100, journal_pages=4)
    a = fs.create(10)
    b = fs.create(10)
    c = fs.create(10)
    sim.run()
    fs.delete(a)
    fs.delete(c)
    fs.delete(b)  # middle deletion must merge all three extents
    assert fs.largest_free_extent() == fs.free_pages()


def test_allocation_exhaustion():
    sim, _, _, fs = make_fs(page_count=20, journal_pages=4)
    fs.create(16)
    with pytest.raises(FsError):
        fs.create(4)


def test_journal_is_circular():
    sim, _, dispatcher, fs = make_fs(page_count=100, journal_pages=4)
    for _ in range(10):
        fid = fs.create(1)
        fs.delete(fid)
    sim.run()
    assert fs.journal_writes == 20
    # All journal writes stayed within the journal region.
    assert dispatcher.stats.direct_ops == 20


def test_journal_record_pages_multiplies_direct_traffic():
    sim1, _, d1, fs1 = make_fs(journal_record_pages=1)
    sim2, _, d2, fs2 = make_fs(journal_record_pages=2)
    fs1.create(4)
    fs2.create(4)
    sim1.run()
    sim2.run()
    assert d2.stats.direct_bytes == 2 * d1.stats.direct_bytes


def test_invalid_construction():
    sim = Simulator()
    device = SsdDevice(sim, SsdConfig.small(blocks=64, pages_per_block=8))
    cache = PageCache(4096, 4096 * 64, device.ftl.space.user_pages)
    dispatcher = IoDispatcher(sim, cache, device)
    with pytest.raises(FsError):
        SimpleFileSystem(dispatcher, 0, 10, journal_pages=16)
    with pytest.raises(FsError):
        SimpleFileSystem(dispatcher, 0, 100, journal_pages=16, journal_record_pages=20)
