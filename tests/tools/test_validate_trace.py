"""Tests for tools/validate_trace.py's latency-record and span checks.

The validator's happy paths run in CI against real traces; these tests
pin the *failure* paths -- malformed per-op completion records, span
records that are not duration events, and the ``--require-latency``
contract -- with hand-built minimal traces.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "validate_trace", REPO_ROOT / "tools" / "validate_trace.py"
)
validate_trace = importlib.util.module_from_spec(_spec)
sys.modules["validate_trace"] = validate_trace
_spec.loader.exec_module(validate_trace)


HEADER = {
    "type": "header",
    "format": "repro-trace/1",
    "seed": 42,
    "fault_profile": "none",
    "time_unit": "ns",
}


def _event(name="gc.start", ph="B", ts=0, **extra):
    return {"type": "event", "name": name, "cat": "gc", "ts": ts, "ph": ph, **extra}


def _op_complete(ts=10, dur=5, **args_extra):
    args = {"kind": "write", "queue_depth": 0, **args_extra}
    return _event(name="op.complete", ph="X", ts=ts, dur=dur, args=args)


def _counter(name, ts=20):
    return _event(name=name, ph="C", ts=ts, args={"value": 1})


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return str(path)


def _write_chrome(path, events):
    for event in events:
        event.setdefault("pid", 1)
        event.setdefault("tid", "host")
        event.pop("type", None)
        event.pop("cat", None)
        event["cat"] = "gc"
    document = {
        "traceEvents": events,
        "otherData": {"seed": 42, "fault_profile": "none"},
        "displayTimeUnit": "ns",
    }
    path.write_text(json.dumps(document))
    return str(path)


def _full_latency_events():
    return [
        _op_complete(),
        _counter("host.op_latency_ns.p99"),
        _counter("host.op_latency_ns.p999"),
    ]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_jsonl_with_latency_records_passes(tmp_path):
    path = _write_jsonl(tmp_path / "t.jsonl", [HEADER, *_full_latency_events()])
    validate_trace.validate_jsonl(path, require_latency=True)


def test_jsonl_missing_op_completes_fails_only_when_required(tmp_path):
    path = _write_jsonl(tmp_path / "t.jsonl", [HEADER, _event()])
    validate_trace.validate_jsonl(path)  # fine without the flag
    with pytest.raises(ValueError, match="op.complete"):
        validate_trace.validate_jsonl(path, require_latency=True)


def test_jsonl_missing_counter_tracks_fails_when_required(tmp_path):
    path = _write_jsonl(tmp_path / "t.jsonl", [HEADER, _op_complete()])
    with pytest.raises(ValueError, match="counter tracks"):
        validate_trace.validate_jsonl(path, require_latency=True)


def test_op_complete_must_be_complete_duration_event(tmp_path):
    bad = _op_complete()
    del bad["dur"]
    path = _write_jsonl(tmp_path / "t.jsonl", [HEADER, bad])
    with pytest.raises(ValueError, match="dur"):
        validate_trace.validate_jsonl(path)

    bad = _op_complete()
    del bad["args"]["queue_depth"]
    path = _write_jsonl(tmp_path / "t.jsonl", [HEADER, bad])
    with pytest.raises(ValueError, match="queue_depth"):
        validate_trace.validate_jsonl(path)


@pytest.mark.parametrize("name", sorted(validate_trace.SPAN_EVENT_NAMES))
def test_span_records_pass_as_duration_events(tmp_path, name):
    span = _event(name=name, ph="X", ts=10, dur=0, args={"pages": 1})
    validate_trace.validate_jsonl(_write_jsonl(tmp_path / "t.jsonl", [HEADER, span]))
    validate_trace.validate_chrome(_write_chrome(tmp_path / "t.json", [span]))


@pytest.mark.parametrize(
    "bad",
    [
        _event(name="backpressure", ph="i", ts=10, args={"writers": 1}),
        _event(name="ftl.mapping_fault", ph="X", ts=10, args={"kind": "miss"}),
        _event(name="fgc.stall", ph="X", ts=10, dur=-1, args={"pages": 1}),
    ],
    ids=["instant", "no-dur", "negative-dur"],
)
def test_span_records_must_be_duration_events(tmp_path, bad):
    path = _write_jsonl(tmp_path / "t.jsonl", [HEADER, bad])
    with pytest.raises(ValueError, match="duration event"):
        validate_trace.validate_jsonl(path)


# ----------------------------------------------------------------------
# Chrome
# ----------------------------------------------------------------------
def test_chrome_with_latency_records_passes(tmp_path):
    path = _write_chrome(tmp_path / "t.json", _full_latency_events())
    validate_trace.validate_chrome(path, require_latency=True)


def test_chrome_requires_monotone_timestamps_per_track(tmp_path):
    events = [_event(ts=100), _op_complete(ts=10)]
    path = _write_chrome(tmp_path / "t.json", events)
    with pytest.raises(ValueError, match="monotone"):
        validate_trace.validate_chrome(path)


def test_chrome_missing_latency_fails_when_required(tmp_path):
    path = _write_chrome(tmp_path / "t.json", [_event()])
    with pytest.raises(ValueError, match="op.complete"):
        validate_trace.validate_chrome(path, require_latency=True)


# ----------------------------------------------------------------------
# CLI entry: format sniffing and the --require-latency flag
# ----------------------------------------------------------------------
def test_main_sniffs_both_formats_and_parses_flag(tmp_path):
    jsonl = _write_jsonl(tmp_path / "t.jsonl", [HEADER, *_full_latency_events()])
    chrome = _write_chrome(tmp_path / "t.json", _full_latency_events())
    assert validate_trace.main(["--require-latency", jsonl, chrome]) == 0
    bare = _write_jsonl(tmp_path / "bare.jsonl", [HEADER, _event()])
    assert validate_trace.main([bare]) == 0
    assert validate_trace.main(["--require-latency", bare]) == 1
    assert validate_trace.main([]) == 2
