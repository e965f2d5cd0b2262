"""Tests for the cumulative data histogram, including the paper's
Fig. 5 worked example."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cdh import CumulativeDataHistogram

MB = 1_000_000


def test_paper_fig5_example():
    """Fig. 5: 10, 20, 20, 20, 80 MB over five intervals; 10 MB bins.

    The CDH reads 0.2 at the 10 MB bound and 0.8 at 20 MB; the 80 %
    reservation is therefore 20 MB.
    """
    cdh = CumulativeDataHistogram(bin_bytes=10 * MB)
    for amount in (10 * MB, 20 * MB, 20 * MB, 20 * MB, 80 * MB):
        # The bin of value v is v // bin; 10 MB lands in bin 1's range
        # [10, 20) only if slightly below; use the bin midpoints like a
        # real observation stream would.
        cdh.observe(amount - 1)
    cdf = cdh.cdf()
    assert cdf[0] == pytest.approx(0.2)   # <= 10 MB: 1 of 5
    assert cdf[1] == pytest.approx(0.8)   # <= 20 MB: 4 of 5
    assert cdh.percentile_bytes(0.8) == 20 * MB
    assert cdh.percentile_bytes(0.81) == 80 * MB
    assert cdh.percentile_bytes(0.2) == 10 * MB


def test_empty_cdh():
    cdh = CumulativeDataHistogram(bin_bytes=MB)
    assert cdh.histogram() == []
    assert cdh.cdf() == []
    assert cdh.percentile_bytes(0.8) == 0


def test_histogram_bins():
    cdh = CumulativeDataHistogram(bin_bytes=10)
    for value in (0, 5, 9, 10, 25):
        cdh.observe(value)
    assert cdh.histogram() == [3, 1, 1]


def test_sliding_window_forgets():
    cdh = CumulativeDataHistogram(bin_bytes=10, window=3)
    cdh.observe(100)
    for _ in range(3):
        cdh.observe(5)
    assert cdh.histogram() == [3]  # the 100 (bin 10) has left the window
    assert cdh.count == 3


def test_percentile_one_covers_max():
    cdh = CumulativeDataHistogram(bin_bytes=10)
    cdh.observe(42)
    assert cdh.percentile_bytes(1.0) >= 42


def test_validation():
    with pytest.raises(ValueError):
        CumulativeDataHistogram(bin_bytes=0)
    with pytest.raises(ValueError):
        CumulativeDataHistogram(bin_bytes=10, window=0)
    cdh = CumulativeDataHistogram(bin_bytes=10)
    with pytest.raises(ValueError):
        cdh.observe(-1)
    with pytest.raises(ValueError):
        cdh.percentile_bytes(0.0)


# ----------------------------------------------------------------------
# percentile_bytes walks the observations, not the bins
# ----------------------------------------------------------------------
def percentile_bytes_by_bins(cdh, probability):
    """The read-out ``percentile_bytes`` replaced: build the whole CDF,
    take the first bin that reaches ``probability``."""
    cdf = cdh.cdf()
    for index, cumulative in enumerate(cdf):
        if cumulative >= probability:
            return (index + 1) * cdh.bin_bytes
    return len(cdf) * cdh.bin_bytes


def check_against_the_bins_walk(cdh, probabilities):
    for probability in probabilities:
        assert cdh.percentile_bytes(probability) == percentile_bytes_by_bins(
            cdh, probability
        )


def test_percentile_bytes_equals_the_bins_walk_on_the_paper_window():
    cdh = CumulativeDataHistogram(bin_bytes=10 * MB)
    for amount in (10 * MB, 20 * MB, 20 * MB, 20 * MB, 80 * MB):
        cdh.observe(amount - 1)
    # Every k/n exactly, one ulp past one of them, and both ends.
    check_against_the_bins_walk(
        cdh, [k / 5 for k in range(1, 6)] + [1e-12, 0.8000000000000002]
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_percentile_bytes_equals_the_bins_walk(data):
    bin_bytes = data.draw(st.integers(1, 1 << 20), label="bin_bytes")
    window = data.draw(st.one_of(st.none(), st.integers(1, 64)), label="window")
    observations = data.draw(
        st.one_of(
            st.lists(st.integers(0, 2000 * bin_bytes), min_size=1, max_size=80),
            st.lists(st.just(0), min_size=1, max_size=8),
        ),
        label="observations",
    )
    cdh = CumulativeDataHistogram(bin_bytes=bin_bytes, window=window)
    for value in observations:
        cdh.observe(value)
    n = cdh.count
    check_against_the_bins_walk(
        cdh,
        [
            1.0,
            data.draw(st.integers(1, n), label="k") / n,
            data.draw(st.floats(0.0, 1.0, exclude_min=True), label="p"),
        ],
    )


def test_percentile_bytes_does_not_build_the_bins():
    """One 10 GB interval in 64 KiB bins is bin 152,587; reading a
    percentile must not allocate a list that long."""
    cdh = CumulativeDataHistogram(bin_bytes=64 * 1024)
    cdh.observe(10 * 10**9)
    tracemalloc.start()
    try:
        assert cdh.percentile_bytes(0.8) == (10 * 10**9 // (64 * 1024) + 1) * 64 * 1024
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024
    assert len(cdh.histogram()) == 152_588  # what the bins walk would have built
