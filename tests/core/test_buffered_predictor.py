"""Tests for the buffered-write predictor, centred on the paper's Fig. 4
worked example."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffered_predictor import BufferedWritePredictor
from repro.oskernel.cache import PageCache
from repro.sim.simtime import SECOND

#: Fig. 4 uses MB-sized quantities; model one page = 1 "MB".
PAGE = 1_000_000
P = 5 * SECOND
TAU = 30 * SECOND


def make(strict=False, tau_flush_pages=0):
    cache = PageCache(PAGE, 4096 * PAGE, 4096)
    predictor = BufferedWritePredictor(
        cache, P, TAU, strict=strict, tau_flush_pages=tau_flush_pages
    )
    return cache, predictor


def write_mb(cache, start, mb, now_s):
    for page in range(start, start + mb):
        cache.write_page(page, now=now_s * SECOND)


def test_paper_fig4_example():
    """Reproduces Dbuf(5), Dbuf(10) and Dbuf(20) from Fig. 4 exactly."""
    cache, predictor = make()
    write_mb(cache, 0, 20, now_s=2)      # A: 20 MB in (0, 5]
    write_mb(cache, 100, 20, now_s=3)    # B: 20 MB in (0, 5]

    at5 = predictor.predict(5 * SECOND)
    assert [d // PAGE for d in at5.demands_bytes] == [0, 0, 0, 0, 0, 40]

    write_mb(cache, 200, 20, now_s=7)    # C: 20 MB in (5, 10]
    write_mb(cache, 100, 20, now_s=8)    # B': update of B resets its age

    at10 = predictor.predict(10 * SECOND)
    assert [d // PAGE for d in at10.demands_bytes] == [0, 0, 0, 0, 20, 40]

    write_mb(cache, 300, 200, now_s=17)  # D: 200 MB in (15, 20]

    at20 = predictor.predict(20 * SECOND)
    assert [d // PAGE for d in at20.demands_bytes] == [0, 0, 20, 40, 0, 200]


def test_sip_list_contains_all_dirty_pages():
    cache, predictor = make()
    write_mb(cache, 0, 3, now_s=1)
    prediction = predictor.predict(5 * SECOND)
    assert prediction.sip.as_set() == {0, 1, 2}
    assert prediction.sip.created_at == 5 * SECOND
    assert len(prediction.sip) == 3


def test_total_bytes():
    cache, predictor = make()
    write_mb(cache, 0, 7, now_s=1)
    prediction = predictor.predict(5 * SECOND)
    assert prediction.total_bytes() == 7 * PAGE


def test_nwb():
    _, predictor = make()
    assert predictor.nwb == 6


def test_page_written_at_scan_time_lands_last():
    cache, predictor = make()
    cache.write_page(0, now=10 * SECOND)
    prediction = predictor.predict(10 * SECOND)
    assert prediction.demands_bytes[5] == PAGE
    assert sum(prediction.demands_bytes[:5]) == 0


def test_overdue_page_clamps_to_first_interval():
    """A page past expiry (possible between flush and scan) predicts I1."""
    cache, predictor = make()
    cache.write_page(0, now=0)
    prediction = predictor.predict(40 * SECOND)
    assert prediction.demands_bytes[0] == PAGE


def test_strict_mode_pulls_excess_earlier():
    cache, predictor = make(strict=True, tau_flush_pages=10)
    # 30 pages all landing in the last interval under the relaxed rule.
    write_mb(cache, 0, 30, now_s=5)
    prediction = predictor.predict(5 * SECOND)
    relaxed_last = prediction.demands_bytes[-1]
    # Strict mode caps the backlog at tau_flush: at most 10 pages remain
    # in the final interval, the rest shifted earlier.
    assert relaxed_last <= 10 * PAGE
    assert prediction.total_bytes() == 30 * PAGE


@settings(max_examples=60, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),  # lpn
            st.integers(min_value=0, max_value=60),  # time (written in order)
        ),
        max_size=60,
    ),
    ticks=st.lists(st.integers(min_value=0, max_value=14), min_size=1, max_size=6),
)
def test_predictor_incremental_dbuf_matches_scan(writes, ticks):
    """On a flusher tick (the incremental histogram) and off it (the
    dirty-set scan), ``Dbuf`` equals ``_flush_interval`` applied to
    every dirty page -- the scan the histogram replaced."""
    period, tau = 5, 30
    cache = PageCache(4096, 128 * 4096, 128)
    predictor = BufferedWritePredictor(cache, period, tau)
    for lpn, t in sorted(writes, key=lambda write: write[1]):
        cache.write_page(lpn, t)

    def scanned(now):
        demands = [0] * predictor.nwb
        for _lpn, last_update in cache.dirty_items():
            demands[predictor._flush_interval(last_update, now) - 1] += 4096
        return demands

    for tick in sorted(ticks):
        for now in (tick * period, tick * period + 1):
            prediction = predictor.predict(now)
            assert prediction.demands_bytes == scanned(now)
            assert prediction.sip.as_set() == set(cache.dirty_lpns())


def test_validation():
    cache = PageCache(PAGE, 64 * PAGE, 64)
    with pytest.raises(ValueError):
        BufferedWritePredictor(cache, 0, TAU)
    with pytest.raises(ValueError):
        BufferedWritePredictor(cache, P, TAU + 1)
