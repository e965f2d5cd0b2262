"""Tests for workload infrastructure: regions, Zipf sampling, pacing."""

import numpy as np
import pytest

from repro.core.policies import NoBgcPolicy
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.workloads.base import Region, Workload, ZipfGenerator


def make_host():
    return HostSystem(SsdConfig.small(blocks=128, pages_per_block=16), NoBgcPolicy())


# ----------------------------------------------------------------------
# Region
# ----------------------------------------------------------------------
def test_region_bounds():
    region = Region(10, 90)
    assert region.end == 100
    with pytest.raises(ValueError):
        Region(-1, 5)
    with pytest.raises(ValueError):
        Region(0, 0)


def test_region_sub():
    region = Region(10, 90)
    sub = region.sub(5, 20)
    assert sub.start == 15 and sub.pages == 20
    with pytest.raises(ValueError):
        region.sub(80, 20)


def test_region_split_covers_exactly():
    region = Region(0, 10)
    parts = region.split(3)
    assert [p.pages for p in parts] == [4, 3, 3]
    assert parts[0].start == 0
    assert parts[-1].end == 10
    with pytest.raises(ValueError):
        region.split(0)


# ----------------------------------------------------------------------
# ZipfGenerator
# ----------------------------------------------------------------------
def test_zipf_range_and_skew():
    rng = np.random.default_rng(1)
    zipf = ZipfGenerator(1000, theta=1.2, rng=rng)
    samples = [zipf.sample() for _ in range(5000)]
    assert min(samples) >= 0 and max(samples) < 1000
    # Item 0 must be the clear favourite under strong skew.
    assert samples.count(0) > samples.count(500)


def test_zipf_theta_zero_is_uniformish():
    rng = np.random.default_rng(1)
    zipf = ZipfGenerator(10, theta=0.0, rng=rng)
    samples = [zipf.sample() for _ in range(10000)]
    counts = [samples.count(i) for i in range(10)]
    assert max(counts) < 2 * min(counts)


def test_zipf_with_rng_shares_distribution():
    rng_a = np.random.default_rng(1)
    base = ZipfGenerator(100, theta=1.0, rng=rng_a)
    clone = base.with_rng(np.random.default_rng(2))
    assert clone._cdf is base._cdf
    assert 0 <= clone.sample() < 100


def test_zipf_samples_are_the_batched_inverse_cdf_draws():
    """The batch is kept as a list; the stream and its 4096-sample
    refills are those of ``searchsorted(cdf, rng.random(4096))``."""
    zipf = ZipfGenerator(300, theta=0.9, rng=np.random.default_rng(7))
    twin = np.random.default_rng(7)
    samples = [zipf.sample() for _ in range(4096 + 4096 + 10)]
    expected = np.concatenate(
        [np.searchsorted(zipf._cdf, twin.random(4096)) for _ in range(3)]
    )
    assert samples == expected[: len(samples)].tolist()
    assert all(type(value) is int for value in samples)


def test_zipf_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ZipfGenerator(0, 1.0, rng)
    with pytest.raises(ValueError):
        ZipfGenerator(10, -1.0, rng)


# ----------------------------------------------------------------------
# Workload base mechanics
# ----------------------------------------------------------------------
class OneShotWorkload(Workload):
    name = "one-shot"

    def build_actors(self):
        def actor():
            rng = self.actor_rng(0)
            yield from self.op_write(0, 1, direct=True)
            yield from self.think(rng)
            yield from self.op_read(0, 1)

        return [actor()]


def test_workload_ops_counted():
    host = make_host()
    metrics = MetricsCollector(host, "test")
    workload = OneShotWorkload(host, metrics, Region(0, 64))
    workload.start()
    host.run_for(SECOND)
    assert metrics.iops_meter.total_ops == 2


def test_double_start_rejected():
    host = make_host()
    metrics = MetricsCollector(host, "test")
    workload = OneShotWorkload(host, metrics, Region(0, 64))
    workload.start()
    with pytest.raises(RuntimeError):
        workload.start()


def test_exponential_truncated_at_4x_mean():
    host = make_host()
    metrics = MetricsCollector(host, "test")
    workload = OneShotWorkload(host, metrics, Region(0, 64), think_ns=1000)
    rng = workload.actor_rng(0)
    draws = [workload._exponential(1000, rng) for _ in range(2000)]
    assert max(draws) <= 4000


def test_think_is_the_truncated_exponential_draw():
    workload, other = (
        OneShotWorkload(host, MetricsCollector(host, "test"), Region(0, 64), think_ns=1000)
        for host in (make_host(), make_host())
    )
    rng, twin = workload.actor_rng(0), other.actor_rng(0)  # equal streams
    for _ in range(500):
        expected = workload._exponential(1000, twin)
        assert [t.delay for t in workload.think(rng)] == ([expected] if expected else [])
    # Without an rng the workload's own stream is drawn from...
    [pause] = list(workload.think()) or [None]
    assert pause is None or 0 < pause.delay <= 4000
    # ...and a workload that does not think draws nothing at all.
    workload.think_ns = 0
    assert list(workload.think(rng)) == []
    assert rng.random() == twin.random()


def test_actor_rng_is_stable_per_index():
    host_a = make_host()
    host_b = make_host()
    metrics_a = MetricsCollector(host_a, "t")
    metrics_b = MetricsCollector(host_b, "t")
    wl_a = OneShotWorkload(host_a, metrics_a, Region(0, 64))
    wl_b = OneShotWorkload(host_b, metrics_b, Region(0, 64))
    assert wl_a.actor_rng(3).integers(0, 10**9) == wl_b.actor_rng(3).integers(0, 10**9)


def test_phase_gate_parks_and_releases():
    host = make_host()
    metrics = MetricsCollector(host, "test")

    class GatedWorkload(Workload):
        name = "gated"

        def build_actors(self):
            def actor():
                while True:
                    yield from self.op_gate()
                    yield from self.op_write(0, 1, direct=True)

            return [actor()]

    workload = GatedWorkload(
        host, metrics, Region(0, 64),
        phase_on_ns=SECOND, phase_off_ns=SECOND,
    )
    workload.start()
    host.run_for(SECOND - 1)
    during_on = metrics.iops_meter.total_ops
    assert during_on > 0
    host.run_for(SECOND)  # OFF phase
    during_off = metrics.iops_meter.total_ops - during_on
    # At most one in-flight op completes after the gate closes.
    assert during_off <= 1
    host.run_for(SECOND)  # next ON phase
    assert metrics.iops_meter.total_ops > during_on + during_off
    workload.stop()


def test_phase_params_must_be_paired():
    host = make_host()
    metrics = MetricsCollector(host, "test")
    with pytest.raises(ValueError):
        OneShotWorkload(host, metrics, Region(0, 64), phase_on_ns=SECOND)
