"""One event stream: every audit record reaches the trace exactly once.

The typed records of :mod:`repro.obs.audit` are the trace's typed
events -- :meth:`DecisionAuditLog.record` writes each one as it stores
it, and no site writes a second copy.  A traced dftl run with faults, a
reliability profile, checkpoints and dirty throttling exercises every
record type a live host produces; for each, the trace must carry one
event per stored record, in store order, whose ``ts``/``dur``/args are
the record's fields.  A traced power-cut run covers the recovery record.
"""

import dataclasses
import json

import pytest

from repro.core.policies import JitGcPolicy
from repro.experiments.crashsweep import gc_heavy_spec, run_scenario_with_spo
from repro.faults.powerloss import SpoPlan
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector
from repro.obs import Observability, ObservabilityConfig, OpLog
from repro.obs.audit import (
    BackpressureRecord,
    CheckpointRecord,
    DecisionAuditLog,
    FaultRecord,
    GcSpanRecord,
    ManagerTickRecord,
    MappingFaultRecord,
    RecoveryRecord,
    VictimRecord,
)
from repro.obs.tracer import InMemorySink, Tracer
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.workloads import BENCHMARKS, Region

#: Record type -> the trace event names its records take.
EVENT_NAMES = {
    ManagerTickRecord: {"manager.tick"},
    VictimRecord: {"victim.select"},
    FaultRecord: {"fault.read", "fault.program", "fault.erase"},
    GcSpanRecord: {"fgc.stall", "bgc.block", "scrub.block", "wear_level.block"},
    BackpressureRecord: {"backpressure"},
    MappingFaultRecord: {"ftl.mapping_fault"},
    CheckpointRecord: {"ftl.checkpoint"},
    RecoveryRecord: {"recovery"},
}


def as_event(record):
    """``(cat, name, ts, dur, args)`` the trace must hold for ``record``."""
    args = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    ts = args.pop("t_ns")
    dur = args.pop("dur_ns", None)
    args.pop("event", None)
    return record.track, record.event, ts, dur, args


def traced(event):
    return event["cat"], event["name"], event["ts"], event.get("dur"), event["args"]


@pytest.fixture(scope="module")
def traced_run():
    config = SsdConfig.small(
        blocks=128,
        pages_per_block=16,
        mapping_mode="dftl",
        reliability="mlc-20nm",
        fault_profile="light",
        checkpoint_interval_pages=500,
    )
    sink = InMemorySink()
    obs = Observability(tracer=Tracer(sink), oplog=OpLog())
    host = HostSystem(
        config,
        JitGcPolicy(),
        seed=7,
        cache_bytes=512 * 4096,
        dirty_throttle_fraction=0.3,
        obs=obs,
    )
    working_set = int(host.user_pages * 0.9)
    host.prefill(working_set)
    metrics = MetricsCollector(host, "YCSB")
    BENCHMARKS["YCSB"](host, metrics, Region(0, working_set)).start()
    host.run_for(40 * SECOND)
    obs.finish()
    return obs, sink.records


@pytest.mark.parametrize("kind", list(EVENT_NAMES), ids=lambda kind: kind.__name__)
def test_every_record_is_traced_once_with_its_fields(traced_run, kind):
    obs, events = traced_run
    assert obs.audit.dropped == 0
    stored = getattr(obs.audit, kind.store)
    if kind is not RecoveryRecord:  # no power cut in this run
        assert stored, f"the run produced no {kind.__name__}"
    typed = [traced(e) for e in events if e["name"] in EVENT_NAMES[kind]]
    assert len(typed) == len(stored)
    assert typed == [as_event(record) for record in stored]


def test_every_logged_op_is_traced_once(traced_run):
    obs, events = traced_run
    oplog = obs.oplog
    ops = [e for e in events if e["name"] == "op.complete"]
    assert len(ops) == len(oplog) > 0
    assert [(e["ts"], e["ts"] + e["dur"], e["args"]) for e in ops] == [
        (issue, done, {"kind": kind, "queue_depth": depth})
        for kind, issue, done, depth in zip(
            oplog.kinds, oplog.issue_ns, oplog.complete_ns, oplog.queue_depths
        )
    ]


def test_power_on_traces_its_recovery_record(tmp_path):
    """The resumed phase's trace carries the recovery scan as one
    ``spo`` / ``recovery`` event whose args are the report's fields."""
    spec = gc_heavy_spec(
        blocks=96,
        pages_per_block=16,
        measure_s=4,
        seed=9,
        checkpoint_interval=256,
        obs=ObservabilityConfig(trace_path=str(tmp_path / "spo.jsonl")),
    )
    outcome = run_scenario_with_spo(
        spec, SpoPlan(at_ns=((spec.warmup_s + 1) * SECOND,))
    )
    (report,) = outcome.reports
    (cut,) = outcome.cuts
    lines = (tmp_path / "spo-phase1.jsonl").read_text().splitlines()
    (event,) = [e for e in map(json.loads, lines[1:]) if e["name"] == "recovery"]
    assert (event["cat"], event["ts"], event["ph"]) == ("spo", cut.t_ns, "i")
    fields = [f.name for f in dataclasses.fields(RecoveryRecord) if f.name != "t_ns"]
    assert event["args"] == {name: getattr(report, name) for name in fields}


def test_trace_is_not_capped_by_the_store_limit():
    """Each store keeps at most ``limit`` records; the trace keeps all."""
    sink = InMemorySink()
    audit = DecisionAuditLog(limit=2, tracer=Tracer(sink))
    for t in range(5):
        audit.record(FaultRecord(t, "read", 0, 0, "read-retry"))
    assert len(audit.faults) == 2 and audit.dropped == 3
    assert [e["ts"] for e in sink.by_name("fault.read")] == list(range(5))
