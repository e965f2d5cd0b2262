"""Tests for the latency-report pipeline and HDR-exact phase merging."""

import pytest

from repro.experiments.crashsweep import gc_heavy_spec, merge_phase_metrics
from repro.experiments.latencyreport import (
    LatencyReportResult,
    latency_spec,
    run_latency_report,
)
from repro.experiments.runner import POLICY_FACTORIES, run_scenario
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.metrics.hdr import HdrHistogram
from repro.obs.attribution import CAUSES
from repro.sim.simtime import SECOND
from tests.metrics.reservoir import LatencyRecorder


def _tiny_spec(**kwargs):
    defaults = dict(blocks=96, pages_per_block=16, measure_s=4, seed=11)
    defaults.update(kwargs)
    return latency_spec(gc_heavy_spec(**defaults))


# ----------------------------------------------------------------------
# The spec builder
# ----------------------------------------------------------------------
def test_latency_spec_enables_tail_attribution():
    spec = latency_spec(threshold_pct=98.0)
    assert spec.obs.audit
    assert spec.obs.tail_attribution
    assert spec.obs.tail_threshold_pct == 98.0


# ----------------------------------------------------------------------
# End-to-end: one short GC-heavy run with attribution on
# ----------------------------------------------------------------------
def test_tail_fields_populated_end_to_end():
    metrics = run_scenario(_tiny_spec())
    assert metrics.host_pages_written > 0
    assert metrics.latency_hist is not None
    assert metrics.p999_latency_ns >= metrics.p99_latency_ns >= metrics.p50_latency_ns
    assert metrics.max_latency_ns >= metrics.p9999_latency_ns
    assert metrics.tail_threshold_pct == 99.0
    assert metrics.tail_threshold_ns > 0
    assert metrics.tail_slow_ops > 0
    # Every cause appears in the table and the counts account for every
    # slow op -- the attribution engine's catch-all contract.
    assert set(metrics.tail_causes) == set(CAUSES)
    assert (
        sum(count for count, _ in metrics.tail_causes.values())
        == metrics.tail_slow_ops
    )
    # The whole report survives the --jobs wire format.
    assert RunMetrics.from_wire(metrics.to_wire()) == metrics


def test_report_formats_and_accounts():
    policies = {name: POLICY_FACTORIES[name] for name in ("JIT-GC", "L-BGC")}
    result = run_latency_report(spec=_tiny_spec(), policies=policies)
    assert isinstance(result, LatencyReportResult)
    assert result.attribution_ok()
    text = result.format()
    for needle in ("p999", "fgc-stall", "JIT-GC", "L-BGC", "slow"):
        assert needle in text


# ----------------------------------------------------------------------
# HDR-exact phase merging (the crashsweep satellite fix)
# ----------------------------------------------------------------------
def _phase(latencies, duration_ns=SECOND, **kwargs):
    hist = HdrHistogram()
    for value in latencies:
        hist.record(value)
    pcts = hist.percentiles([50.0, 95.0, 99.0, 99.9, 99.99])
    return RunMetrics(
        policy="JIT-GC",
        workload="YCSB",
        duration_ns=duration_ns,
        iops=1000.0,
        waf=1.0,
        host_pages_written=len(latencies),
        gc_pages_migrated=0,
        fgc_invocations=0,
        fgc_time_ns=0,
        bgc_blocks=0,
        erases=0,
        mean_latency_ns=hist.mean(),
        p50_latency_ns=pcts[50.0],
        p95_latency_ns=pcts[95.0],
        p99_latency_ns=pcts[99.0],
        p999_latency_ns=pcts[99.9],
        p9999_latency_ns=pcts[99.99],
        max_latency_ns=hist.max(),
        latency_hist=hist.to_wire(),
        **kwargs,
    )


def test_merge_phase_metrics_is_exact_with_histograms():
    # Phase A holds the fast ops, phase B the slow tail.  A max-of-
    # phase-percentiles merge cannot see that B's samples shift A's
    # quantile ranks; the histogram merge can.
    fast = list(range(100, 200))
    slow = [10_000, 20_000, 500_000]
    merged = merge_phase_metrics([_phase(fast), _phase(slow)])

    reference = HdrHistogram()
    for value in fast + slow:
        reference.record(value)
    expect = reference.percentiles([50.0, 95.0, 99.0, 99.9, 99.99])
    assert merged.latency_hist == reference.to_wire()
    assert merged.p50_latency_ns == expect[50.0]
    assert merged.p95_latency_ns == expect[95.0]
    assert merged.p99_latency_ns == expect[99.0]
    assert merged.p999_latency_ns == expect[99.9]
    assert merged.p9999_latency_ns == expect[99.99]
    assert merged.max_latency_ns == 500_000
    assert merged.mean_latency_ns == pytest.approx(reference.mean())
    # Rehydration round-trips.
    assert merged.latency_histogram() == reference


def test_merge_phase_metrics_sums_tail_attribution():
    a = _phase(
        [100] * 10,
        tail_threshold_pct=99.0,
        tail_threshold_ns=90,
        tail_slow_ops=2,
        tail_causes={"fgc-stall": [2, 400]},
    )
    b = _phase(
        [100] * 10,
        tail_threshold_pct=99.0,
        tail_threshold_ns=110,
        tail_slow_ops=3,
        tail_causes={"fgc-stall": [1, 150], "media-queueing": [2, 300]},
    )
    merged = merge_phase_metrics([a, b])
    assert merged.tail_slow_ops == 5
    assert merged.tail_threshold_ns == 110
    assert merged.tail_causes["fgc-stall"] == [3, 550]
    assert merged.tail_causes["media-queueing"] == [2, 300]


def test_merge_phase_metrics_empty_phase_contributes_no_samples():
    # A phase in which no latency-carrying op completed has no histogram;
    # it adds no samples, so the merge stays exact over the others.
    a = _phase([100] * 10)
    b = _phase([200] * 10)
    empty = _phase([])
    empty.latency_hist = None  # as MetricsCollector.results() reports it
    merged = merge_phase_metrics([a, empty, b])

    reference = HdrHistogram()
    for value in [100] * 10 + [200] * 10:
        reference.record(value)
    assert merged.latency_hist == reference.to_wire()
    assert merged.mean_latency_ns == reference.mean()
    assert merged.p50_latency_ns == reference.percentile(50.0)
    assert merged.p99_latency_ns == 200
    assert merged.max_latency_ns == 200


# ----------------------------------------------------------------------
# Reservoir oracle equivalence: recording must never perturb the run
# ----------------------------------------------------------------------
def test_reservoir_oracle_run_is_bit_identical(monkeypatch):
    # measure_s=2 keeps the op count under the 4096-slot reservoir, so
    # the oracle's nearest-rank percentiles are exact, not sampled.
    spec = _tiny_spec(measure_s=2)
    hdr_metrics = run_scenario(spec)
    oracle = LatencyRecorder()
    record_op = MetricsCollector.record_op

    def record_into_oracle_too(self, latency_ns=None, *args, **kwargs):
        if latency_ns is not None:
            oracle.record(latency_ns)
        record_op(self, latency_ns, *args, **kwargs)

    monkeypatch.setattr(MetricsCollector, "record_op", record_into_oracle_too)
    observed = run_scenario(spec)
    hist = hdr_metrics.latency_histogram()
    assert oracle.count == hist.count <= 4096
    # Feeding the oracle never touches what the host did: the run is
    # bit-identical, latency summary included.
    assert observed == hdr_metrics
    assert oracle.max() == hdr_metrics.max_latency_ns
    # And the HDR percentiles sit within the histogram's relative-error
    # bound of the exact reservoir values.
    for hdr_value, q in (
        (hdr_metrics.p50_latency_ns, 50),
        (hdr_metrics.p99_latency_ns, 99),
        (hdr_metrics.p999_latency_ns, 99.9),
    ):
        exact = oracle.percentile(q)
        assert abs(hdr_value - exact) <= max(1, int(exact * hist.relative_error))
