"""Tests for the HDR log-linear histogram (repro.metrics.hdr).

The property tests pin the two contracts the tail-latency pipeline
rests on: merging histograms is *bit-identical* to one histogram fed
the concatenated stream, and every quantile is within the configured
relative error of the exact nearest-rank quantile of the raw samples.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.hdr import HdrHistogram, merge_wire_histograms, nearest_rank

latency_values = st.integers(min_value=0, max_value=60 * 10**9)
latency_streams = st.lists(latency_values, min_size=1, max_size=300)


# ----------------------------------------------------------------------
# nearest_rank (the shared quantile definition)
# ----------------------------------------------------------------------
def test_nearest_rank_basics():
    assert nearest_rank(0, 4) == 1
    assert nearest_rank(100, 4) == 4
    assert nearest_rank(50, 4) == 2
    assert nearest_rank(99, 4) == 4
    assert nearest_rank(50, 0) == 0


def test_nearest_rank_float_artifacts():
    # 0.99 * 100 == 99.00000000000001 in binary floats; the epsilon
    # must keep p99 of 100 samples at rank 99, not 100.
    assert nearest_rank(99.0, 100) == 99
    assert nearest_rank(99.9, 1000) == 999


def test_nearest_rank_validation():
    with pytest.raises(ValueError):
        nearest_rank(101, 10)
    with pytest.raises(ValueError):
        nearest_rank(-1, 10)


# ----------------------------------------------------------------------
# Bucket geometry
# ----------------------------------------------------------------------
@given(latency_values)
def test_bucket_contains_value(value):
    hist = HdrHistogram()
    index = hist.bucket_index(value)
    assert value <= hist.bucket_high(index)
    if index > 0:
        assert value > hist.bucket_high(index - 1)


@given(latency_values)
def test_bucket_width_bounds_relative_error(value):
    hist = HdrHistogram()
    high = hist.bucket_high(hist.bucket_index(value))
    assert high - value <= max(1, int(value * hist.relative_error))


def test_small_values_exact():
    hist = HdrHistogram(bucket_bits=8)
    for value in range(256):
        assert hist.bucket_high(hist.bucket_index(value)) == value


def test_bucket_bits_validation():
    with pytest.raises(ValueError):
        HdrHistogram(bucket_bits=1)
    with pytest.raises(ValueError):
        HdrHistogram(bucket_bits=21)


# ----------------------------------------------------------------------
# Recording and statistics
# ----------------------------------------------------------------------
def test_exact_mean_min_max():
    hist = HdrHistogram()
    for value in (10, 20, 30, 1_000_000):
        hist.record(value)
    assert hist.count == 4
    assert hist.mean() == pytest.approx((10 + 20 + 30 + 1_000_000) / 4)
    assert hist.min() == 10
    assert hist.max() == 1_000_000


def test_empty_histogram():
    hist = HdrHistogram()
    assert hist.count == 0
    assert hist.mean() == 0.0
    assert hist.percentile(99) == 0
    assert hist.percentiles([50, 99]) == {50: 0, 99: 0}


def test_record_validation():
    hist = HdrHistogram()
    with pytest.raises(ValueError):
        hist.record(-1)
    with pytest.raises(ValueError):
        hist.record(1, n=0)


def test_percentile_extremes_clamp_to_observed():
    hist = HdrHistogram()
    for value in (1000, 2000, 3_000_000):
        hist.record(value)
    assert hist.percentile(100) == hist.max() == 3_000_000
    assert hist.percentile(0) >= hist.min()


@given(latency_streams)
@settings(max_examples=200, deadline=None)
def test_quantiles_within_relative_error_of_exact(stream):
    """HDR quantile vs exact nearest-rank quantile of the sorted stream."""
    hist = HdrHistogram()
    for value in stream:
        hist.record(value)
    ordered = sorted(stream)
    for q in (0, 50, 90, 95, 99, 99.9, 99.99, 100):
        exact = ordered[nearest_rank(q, len(ordered)) - 1]
        estimate = hist.percentile(q)
        # The bucket's upper bound is >= the exact sample and within the
        # relative-error bound of it (never below, never too far above).
        assert estimate >= exact or estimate == hist.max()
        assert estimate - exact <= max(1, int(exact * hist.relative_error))


@given(latency_streams)
@settings(max_examples=100, deadline=None)
def test_percentiles_batch_matches_single(stream):
    hist = HdrHistogram()
    for value in stream:
        hist.record(value)
    qs = [0, 50, 95, 99, 99.9, 100]
    batch = hist.percentiles(qs)
    assert batch == {q: hist.percentile(q) for q in qs}


# ----------------------------------------------------------------------
# Merging (the --jobs / SPO-phase contract)
# ----------------------------------------------------------------------
@given(st.lists(latency_streams, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_merge_bit_identical_to_concatenated_stream(streams):
    merged = HdrHistogram()
    for stream in streams:
        part = HdrHistogram()
        for value in stream:
            part.record(value)
        merged.merge(part)
    reference = HdrHistogram()
    for stream in streams:
        for value in stream:
            reference.record(value)
    assert merged == reference
    assert merged.to_wire() == reference.to_wire()


def test_merge_rejects_mismatched_resolution():
    with pytest.raises(ValueError):
        HdrHistogram(bucket_bits=8).merge(HdrHistogram(bucket_bits=9))


# ----------------------------------------------------------------------
# Wire form
# ----------------------------------------------------------------------
@given(latency_streams)
@settings(max_examples=100, deadline=None)
def test_wire_roundtrip(stream):
    hist = HdrHistogram()
    for value in stream:
        hist.record(value)
    wire = hist.to_wire()
    # JSON-safe: survives an actual serialization round trip.
    assert HdrHistogram.from_wire(json.loads(json.dumps(wire))) == hist


def test_merge_wire_histograms():
    a, b = HdrHistogram(), HdrHistogram()
    a.record(10)
    b.record(1_000_000)
    merged = merge_wire_histograms([a.to_wire(), b.to_wire()])
    assert merged.count == 2
    assert merged.min() == 10
    assert merged.max() == 1_000_000
    # Any phase without a histogram poisons the merge (exactness first).
    assert merge_wire_histograms([a.to_wire(), None]) is None
    assert merge_wire_histograms([]) is None


# ----------------------------------------------------------------------
# Interval deltas (per-interval p99/p999 sampling)
# ----------------------------------------------------------------------
def test_interval_percentiles_cover_only_new_samples():
    hist = HdrHistogram()
    for value in (100, 200, 300):
        hist.record(value)
    mark = hist.mark()
    assert hist.interval_percentiles(mark, [99]) == {99: 0}
    hist.record(5000)
    interval = hist.interval_percentiles(mark, [50, 99])
    exact = 5000
    for q in (50, 99):
        assert interval[q] >= exact
        assert interval[q] - exact <= max(1, int(exact * hist.relative_error))


# ----------------------------------------------------------------------
# record() computes the bucket itself; bucket_index stays for readers
# ----------------------------------------------------------------------
def reference_record(hist, value, n=1):
    """``record`` as it stood when it called ``bucket_index``."""
    if value < 0:
        raise ValueError(f"value must be >= 0, got {value}")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    value = int(value)
    index = hist.bucket_index(value)
    hist.counts[index] = hist.counts.get(index, 0) + n
    hist.count += n
    hist.total += value * n
    if hist._min is None or value < hist._min:
        hist._min = value
    if value > hist._max:
        hist._max = value


#: Both sides of the exact/log-linear boundary, and past 2^40.
edge_values = st.sampled_from([0, 1, 255, 256, 257, 511, 512, 2**40, 2**40 + 1, 2**47 - 1])


@given(
    st.lists(
        st.tuples(st.one_of(latency_values, edge_values), st.integers(1, 3)),
        min_size=1,
        max_size=200,
    ),
    st.sampled_from([2, 5, 8, 11]),
)
@settings(max_examples=200, deadline=None)
def test_record_agrees_with_bucket_index(stream, bucket_bits):
    hist = HdrHistogram(bucket_bits)
    reference = HdrHistogram(bucket_bits)
    for value, n in stream:
        alone = HdrHistogram(bucket_bits)
        alone.record(value, n)
        assert alone.counts == {alone.bucket_index(value): n}
        hist.record(value, n)
        reference_record(reference, value, n)
    assert hist == reference
    assert (hist.min(), hist.max()) == (reference.min(), reference.max())
