"""Tests for the run-metrics collector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import NoBgcPolicy, lazy_bgc_policy
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.ssd.request import IoKind, IoRequest
from tests.metrics.test_hdr import reference_record


def make_host(policy=None):
    return HostSystem(
        SsdConfig.small(blocks=128, pages_per_block=16), policy or NoBgcPolicy()
    )


def test_window_scoped_results():
    host = make_host()
    metrics = MetricsCollector(host, "unit")
    # Pre-window traffic.
    host.device.submit(IoRequest(IoKind.DIRECT_WRITE, 0, 4))
    host.run_for(SECOND)
    metrics.begin()
    for index in range(10):
        host.sim.schedule(
            index * 1_000_000,
            lambda i=index: host.device.submit(
                IoRequest(IoKind.DIRECT_WRITE, i, 1,
                          on_complete=lambda r: metrics.record_op(r.latency()))
            ),
        )
    host.run_for(SECOND)
    metrics.end()
    result = metrics.results()
    assert isinstance(result, RunMetrics)
    assert result.workload == "unit"
    assert result.policy == "NO-BGC"
    assert result.duration_ns == SECOND
    assert result.iops == pytest.approx(10.0)
    assert result.host_pages_written == 10  # pre-window 4 pages excluded
    assert result.mean_latency_ns > 0
    assert result.p99_latency_ns >= result.mean_latency_ns / 2


def test_results_require_window():
    host = make_host()
    metrics = MetricsCollector(host, "unit")
    with pytest.raises(RuntimeError):
        metrics.results()


def test_accuracy_absent_for_non_predicting_policy():
    host = make_host(lazy_bgc_policy())
    metrics = MetricsCollector(host, "unit")
    metrics.begin()
    host.run_for(SECOND)
    metrics.end()
    assert metrics.results().prediction_accuracy_pct is None


def test_sip_filtered_pct_zero_without_selections():
    metrics = RunMetrics(
        policy="x", workload="y", duration_ns=1, iops=0, waf=1,
        host_pages_written=0, gc_pages_migrated=0, fgc_invocations=0,
        fgc_time_ns=0, bgc_blocks=0, erases=0,
    )
    assert metrics.sip_filtered_pct() == 0.0
    metrics.sip_selections = 10
    metrics.sip_filtered = 3
    assert metrics.sip_filtered_pct() == pytest.approx(30.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.none(),
            st.sampled_from([0, 255, 256, 2**40 + 1, 2**45]),
            st.integers(0, 60 * 10**9),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_record_op_counts_like_the_calls_it_replaced(latencies):
    """``record_op`` bumps the IOPS meter and the ``host.ops`` counter
    itself; both and the HDR histogram must read as after
    ``IopsMeter.record_op()`` + ``Counter.inc()`` + ``HdrHistogram.record``
    (through ``bucket_index``) per op."""
    metrics = MetricsCollector(make_host(), "unit")
    reference = MetricsCollector(make_host(), "unit")
    for latency in latencies:
        if latency is None:
            metrics.record_op()
        else:
            metrics.record_op(latency, "read", 10, 2)
        reference.iops_meter.record_op()
        reference._ops_counter.inc()
        if latency is not None:
            reference_record(reference.hdr, latency)
    assert metrics.iops_meter.total_ops == reference.iops_meter.total_ops == len(latencies)
    for side in (metrics, reference):
        assert side.host.obs.registry.counter("host.ops").value == len(latencies)
    assert metrics.hdr == reference.hdr
    assert metrics.hdr.counts == reference.hdr.counts
    assert (metrics.hdr.count, metrics.hdr.total) == (reference.hdr.count, reference.hdr.total)
    assert (metrics.hdr.min(), metrics.hdr.max()) == (reference.hdr.min(), reference.hdr.max())
