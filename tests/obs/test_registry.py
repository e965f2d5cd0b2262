"""Tests for the metrics registry and the sim-time sampler."""

import pytest

from repro.obs.registry import MetricsRegistry, MetricsSampler
from repro.obs.tracer import InMemorySink, Tracer
from repro.sim.engine import Simulator
from repro.sim.simtime import SECOND


def test_instruments_are_idempotent_by_name():
    registry = MetricsRegistry()
    assert registry.counter("ops") is registry.counter("ops")
    assert registry.series("op") is registry.series("op")


def test_counter_and_gauge_sampling():
    registry = MetricsRegistry()
    ops = registry.counter("host.ops")
    state = {"free": 100}
    registry.gauge("ftl.free_pages", lambda: state["free"])

    ops.inc(5)
    row = registry.sample(SECOND)
    assert row == {"ftl.free_pages": 100.0, "host.ops": 5}

    ops.inc(7)
    state["free"] = 90
    registry.sample(2 * SECOND)
    assert registry.series("host.ops").points == [(SECOND, 5), (2 * SECOND, 12)]
    assert registry.series("ftl.free_pages").values == [100.0, 90.0]


def test_rate_points_derives_per_interval_iops():
    registry = MetricsRegistry()
    ops = registry.counter("host.ops")
    for t, total in ((SECOND, 100), (2 * SECOND, 300), (4 * SECOND, 300)):
        ops.value = total
        registry.sample(t)
    rates = registry.rate_points("host.ops")
    # 200 ops over the second interval => 200/s; flat afterwards.
    assert rates == [(2 * SECOND, 200.0), (4 * SECOND, 0.0)]


def test_event_driven_series_append():
    registry = MetricsRegistry()
    series = registry.series("ftl.effective_op_pages.events")
    series.append(10, 64)
    series.append(20, 32)
    assert series.points == [(10, 64), (20, 32)]
    assert len(series) == 2


def test_sampler_fires_at_fixed_sim_period():
    sim = Simulator()
    registry = MetricsRegistry()
    registry.gauge("clock", lambda: sim.now)
    sampler = MetricsSampler(registry, SECOND)
    sampler.start(sim)
    sim.run_until(3 * SECOND)
    # Samples at t=0, 1s, 2s, 3s.
    assert registry.series("clock").times_ns == [0, SECOND, 2 * SECOND, 3 * SECOND]
    assert sampler.samples_taken == 4

    sampler.stop()
    sim.run_until(5 * SECOND)
    assert sampler.samples_taken == 4


def test_sampler_mirrors_into_tracer_counters():
    sim = Simulator()
    registry = MetricsRegistry()
    registry.gauge("ftl.waf", lambda: 1.25)
    sink = InMemorySink()
    sampler = MetricsSampler(registry, SECOND, tracer=Tracer(sink, clock=lambda: sim.now))
    sampler.start(sim)
    sim.run_until(SECOND)
    counters = sink.by_name("ftl.waf")
    assert len(counters) == 2
    assert all(r["ph"] == "C" and r["args"]["value"] == 1.25 for r in counters)


def test_sampler_rejects_bad_period():
    with pytest.raises(ValueError):
        MetricsSampler(MetricsRegistry(), 0)


def test_sampler_rejects_double_start():
    sim = Simulator()
    sampler = MetricsSampler(MetricsRegistry(), SECOND)
    sampler.start(sim)
    with pytest.raises(RuntimeError):
        sampler.start(sim)
