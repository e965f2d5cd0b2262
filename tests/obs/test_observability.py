"""Tests for the Observability bundle: config, wiring, and end-to-end runs."""

import json
from dataclasses import replace

import pytest

from repro.core.policies import JitGcPolicy
from repro.host import HostSystem
from repro.obs import Observability, ObservabilityConfig
from repro.obs.tracer import NULL_TRACER, InMemorySink, Tracer
from repro.experiments import ScenarioSpec, run_scenario
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig

TINY = dict(blocks=256, pages_per_block=16, warmup_s=4, measure_s=10)


def test_config_rejects_unknown_format():
    with pytest.raises(ValueError):
        ObservabilityConfig(trace_format="xml")


def test_config_rejects_negative_interval():
    with pytest.raises(ValueError):
        ObservabilityConfig(metrics_interval_ns=-1)


def test_config_enabled():
    assert not ObservabilityConfig().enabled()
    assert ObservabilityConfig(trace_path="t.jsonl").enabled()
    assert ObservabilityConfig(profile=True).enabled()
    assert ObservabilityConfig(audit=True).enabled()


def test_config_with_suffix_renames_trace(tmp_path):
    config = ObservabilityConfig(trace_path=str(tmp_path / "trace.json"))
    suffixed = config.with_suffix("JIT-GC")
    assert suffixed.trace_path == str(tmp_path / "trace-JIT-GC.json")
    # No trace path: suffix is a no-op copy.
    assert ObservabilityConfig().with_suffix("x").trace_path is None


def test_resolve_accepts_none_instance_and_config():
    disabled = Observability.resolve(None)
    assert disabled.tracer is NULL_TRACER
    assert not disabled.audit.enabled
    obs = Observability.disabled()
    assert Observability.resolve(obs) is obs
    from_config = Observability.resolve(ObservabilityConfig(audit=True))
    assert from_config.audit.enabled
    with pytest.raises(TypeError):
        Observability.resolve(42)


def test_tracing_implies_audit(tmp_path):
    config = ObservabilityConfig(trace_path=str(tmp_path / "t.jsonl"))
    obs = Observability.from_config(config)
    assert obs.audit.enabled


def test_install_wires_components():
    sink = InMemorySink()
    obs = Observability(
        tracer=Tracer(sink),
        metrics_interval_ns=SECOND,
    )
    host = HostSystem(
        SsdConfig.small(blocks=128, pages_per_block=16, fault_profile="light"),
        JitGcPolicy(),
        obs=obs,
    )
    assert host.ftl.tracer is obs.tracer
    assert host.flusher.tracer is obs.tracer
    # A trace implies the event streams that write its typed events.
    assert host.device.audit is obs.audit
    assert obs.audit.tracer is obs.tracer and obs.oplog.tracer is obs.tracer
    assert host.ftl.nand.tracer is obs.tracer
    assert host.ftl.nand.fault_injector.tracer is obs.tracer
    assert host.policy.tracer is obs.tracer
    assert obs.sampler is not None


def test_disabled_install_leaves_null_defaults():
    host = HostSystem(
        SsdConfig.small(blocks=128, pages_per_block=16), JitGcPolicy()
    )
    assert host.ftl.tracer is NULL_TRACER
    assert host.flusher.tracer is NULL_TRACER
    assert not host.ftl.audit.enabled
    assert host.obs.sampler is None
    # The registry is always real and shared with the FTL.
    assert host.ftl.registry is host.obs.registry


def test_op_timeline_derives_from_shared_registry():
    host = HostSystem(
        SsdConfig.small(blocks=128, pages_per_block=16, fault_profile="none"),
        JitGcPolicy(),
    )
    series = host.obs.registry.series("ftl.effective_op_pages.events")
    assert host.ftl.op_timeline == []
    series.append(5, 99)
    assert host.ftl.op_timeline == [(5, 99)]


def test_finish_is_idempotent_and_closes_sink():
    sink = InMemorySink()
    obs = Observability(tracer=Tracer(sink))
    obs.finish()
    obs.finish()
    assert sink.closed


def test_run_metrics_identical_with_and_without_tracing(tmp_path):
    """Acceptance: a tracing run must not perturb simulated behaviour."""
    spec = ScenarioSpec(workload="YCSB", policy="JIT-GC", seed=42, **TINY)
    traced = replace(
        spec,
        obs=ObservabilityConfig(
            trace_path=str(tmp_path / "trace.jsonl"), audit=True
        ),
    )
    assert run_scenario(spec) == run_scenario(traced)


def test_run_scenario_chrome_trace_is_perfetto_loadable(tmp_path):
    path = tmp_path / "trace.json"
    spec = ScenarioSpec(
        workload="YCSB",
        policy="JIT-GC",
        seed=42,
        fault_profile="light",
        obs=ObservabilityConfig(trace_path=str(path), trace_format="chrome"),
        **TINY,
    )
    run_scenario(spec)

    document = json.loads(path.read_text())
    assert set(document) == {"traceEvents", "otherData", "displayTimeUnit"}
    header = document["otherData"]
    assert header["seed"] == 42
    assert header["fault_profile"] == "light"
    events = [e for e in document["traceEvents"] if e["ph"] != "M"]
    for event in events:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
    names = {e["name"] for e in events}
    assert {"manager.tick", "flusher.wakeup", "victim.select"} <= names
    # Sim-time ordering holds on every track.
    by_tid = {}
    for event in events:
        by_tid.setdefault(event["tid"], []).append(event["ts"])
    for ts_list in by_tid.values():
        assert ts_list == sorted(ts_list)


def test_run_scenario_jsonl_header_records_scenario(tmp_path):
    path = tmp_path / "trace.jsonl"
    spec = ScenarioSpec(
        workload="YCSB",
        policy="JIT-GC",
        seed=7,
        fault_profile="light",
        obs=ObservabilityConfig(trace_path=str(path)),
        **TINY,
    )
    run_scenario(spec)

    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["type"] == "header"
    assert header["seed"] == 7
    assert header["fault_profile"] == "light"
    assert header["policy"] == "JIT-GC"
    assert header["workload"] == "YCSB"
    events = [json.loads(line) for line in lines[1:]]
    assert all(e["type"] == "event" for e in events)
    assert {"manager.tick", "flusher.wakeup"} <= {e["name"] for e in events}
    # Metrics sampling produced counter records for the standard gauges.
    assert any(e["ph"] == "C" and e["name"] == "ftl.waf" for e in events)


def test_sampler_builds_standard_series_over_a_run():
    sink = InMemorySink()
    obs = Observability(tracer=Tracer(sink), metrics_interval_ns=SECOND)
    host = HostSystem(
        SsdConfig.small(blocks=128, pages_per_block=16),
        JitGcPolicy(),
        obs=obs,
    )
    host.prefill(host.user_pages // 4)
    host.run_for(3 * SECOND)
    registry = obs.registry
    for name in ("ftl.free_pages", "cache.dirty_pages", "ftl.waf", "host.ops"):
        series = registry.series(name)
        # Sampled at t=0, 1s, 2s, 3s.
        assert series.times_ns == [0, SECOND, 2 * SECOND, 3 * SECOND], name
    assert registry.series("ftl.free_pages").values[0] > 0
