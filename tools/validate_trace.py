#!/usr/bin/env python3
"""Validate trace files produced by ``python -m repro run --trace``.

Accepts any mix of JSONL and Chrome ``trace_event`` traces (the format
is sniffed from the first byte) and checks the structural invariants
the CI smoke job relies on:

* JSONL: first line is a ``repro-trace/1`` header carrying ``seed`` and
  ``fault_profile``; every following line is an ``event`` record with a
  name and a sim-time ``ts``.
* Chrome: a single JSON document with ``traceEvents`` / ``otherData`` /
  ``displayTimeUnit``; every non-metadata event carries the keys a
  Perfetto / ``chrome://tracing`` load requires, and timestamps are
  monotone per track (tid).
* Per-op completion records (``host/op.complete``, emitted when tail
  attribution is on): duration events whose args carry the op ``kind``
  and the ``queue_depth`` at issue.
* Latency counter tracks (``host.op_latency_ns.p99`` / ``.p999``):
  sampled per-interval tail percentiles, counter-phase records.

With ``--require-latency`` a trace missing the op-completion records or
the percentile counter tracks fails validation (the latency-report CI
job passes it; plain smoke traces from runs without ``--trace``-time
sampling or tail attribution may legitimately lack both).

Span-typed audit records (GC occupancy, backpressure and mapping-fault
spans; see :data:`SPAN_EVENT_NAMES`) must be duration events with
``dur >= 0`` wherever they appear.

With ``--require-scrub`` a trace must carry at least one
``device/scrub.block`` span (a refresh-scrub relocation, emitted with
``--reliability`` armed and at-risk data present); the reliability CI
smoke job passes it.

Exit status 0 when every file passes; 1 with a diagnostic otherwise.
"""

import json
import sys

REQUIRED_EVENT_KEYS = {"name", "ph", "ts", "pid", "tid"}

#: Counter tracks the registry samples for every registered HDR
#: histogram (see repro.obs.registry.HDR_SAMPLE_PERCENTILES).
LATENCY_COUNTER_TRACKS = (
    "host.op_latency_ns.p99",
    "host.op_latency_ns.p999",
)

OP_COMPLETE_NAME = "op.complete"

#: Refresh-scrub relocation span (device track; reliability runs only).
SCRUB_EVENT_NAME = "scrub.block"

#: Events of the span-typed audit records (repro.obs.audit): each one
#: carries a ``dur_ns`` field, so the trace writes it as a duration event.
SPAN_EVENT_NAMES = frozenset(
    {
        "fgc.stall",
        "bgc.block",
        SCRUB_EVENT_NAME,
        "wear_level.block",
        "backpressure",
        "ftl.mapping_fault",
    }
)


def _check_op_complete(event: dict, args: dict, has_dur: bool) -> None:
    """Shared per-op completion record invariants (both formats)."""
    if event.get("ph") != "X":
        raise ValueError(f"op.complete must be a duration event: {event}")
    if not has_dur:
        raise ValueError(f"op.complete missing dur: {event}")
    for key in ("kind", "queue_depth"):
        if key not in args:
            raise ValueError(f"op.complete args missing {key!r}: {event}")


class _LatencyAudit:
    """Tracks which latency records a trace carried."""

    def __init__(self) -> None:
        self.op_completes = 0
        self.counter_tracks = set()
        self.scrub_spans = 0

    def see(self, event: dict) -> None:
        name, ph = event["name"], event["ph"]
        if name == OP_COMPLETE_NAME and ph == "X":
            self.op_completes += 1
        if ph == "C" and name in LATENCY_COUNTER_TRACKS:
            self.counter_tracks.add(name)
        if name in SPAN_EVENT_NAMES:
            if ph != "X" or not event.get("dur", -1) >= 0:
                raise ValueError(
                    f"{name} must be a duration event with dur >= 0: {event}"
                )
            if name == SCRUB_EVENT_NAME:
                self.scrub_spans += 1

    def enforce(self) -> None:
        if self.op_completes == 0:
            raise ValueError(
                "no host/op.complete records (run with tail attribution on)"
            )
        missing = set(LATENCY_COUNTER_TRACKS) - self.counter_tracks
        if missing:
            raise ValueError(
                f"missing latency counter tracks {sorted(missing)} "
                "(run with metrics sampling on)"
            )

    def enforce_scrub(self) -> None:
        if self.scrub_spans == 0:
            raise ValueError(
                "no device/scrub.block spans (run with --reliability armed "
                "and at-risk data present)"
            )


def validate_jsonl(
    path: str, require_latency: bool = False, require_scrub: bool = False
) -> None:
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    if not lines:
        raise ValueError("empty trace")
    header = lines[0]
    if header.get("type") != "header":
        raise ValueError("first line is not a header record")
    if header.get("format") != "repro-trace/1":
        raise ValueError(f"unexpected format {header.get('format')!r}")
    for key in ("seed", "fault_profile", "time_unit"):
        if key not in header:
            raise ValueError(f"header missing {key!r}")
    events = lines[1:]
    if not events:
        raise ValueError("no events after header")
    audit = _LatencyAudit()
    for event in events:
        if event.get("type") != "event":
            raise ValueError(f"non-event record: {event}")
        for key in ("name", "cat", "ts", "ph"):
            if key not in event:
                raise ValueError(f"event missing {key!r}: {event}")
        if event["name"] == OP_COMPLETE_NAME:
            _check_op_complete(event, event.get("args", {}), "dur" in event)
        audit.see(event)
    if require_latency:
        audit.enforce()
    if require_scrub:
        audit.enforce_scrub()
    print(f"{path}: ok (jsonl, {len(events)} events)")


def validate_chrome(
    path: str, require_latency: bool = False, require_scrub: bool = False
) -> None:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    for key in ("traceEvents", "otherData", "displayTimeUnit"):
        if key not in document:
            raise ValueError(f"document missing {key!r}")
    for key in ("seed", "fault_profile"):
        if key not in document["otherData"]:
            raise ValueError(f"otherData missing {key!r}")
    events = [e for e in document["traceEvents"] if e.get("ph") != "M"]
    if not events:
        raise ValueError("no non-metadata events")
    audit = _LatencyAudit()
    last_ts = {}
    for event in events:
        missing = REQUIRED_EVENT_KEYS - set(event)
        if missing:
            raise ValueError(f"event missing {sorted(missing)}: {event}")
        tid = event["tid"]
        if event["ts"] < last_ts.get(tid, 0):
            raise ValueError(f"timestamps not monotone on tid {tid}")
        last_ts[tid] = event["ts"]
        if event["name"] == OP_COMPLETE_NAME:
            _check_op_complete(event, event.get("args", {}), "dur" in event)
        audit.see(event)
    if require_latency:
        audit.enforce()
    if require_scrub:
        audit.enforce_scrub()
    print(f"{path}: ok (chrome, {len(events)} events, {len(last_ts)} tracks)")


def validate(
    path: str, require_latency: bool = False, require_scrub: bool = False
) -> None:
    with open(path, encoding="utf-8") as handle:
        first = handle.read(1)
    # A chrome trace is one JSON object; JSONL starts with a header line.
    if first == "{" and _is_single_document(path):
        validate_chrome(path, require_latency, require_scrub)
    else:
        validate_jsonl(path, require_latency, require_scrub)


def _is_single_document(path: str) -> bool:
    try:
        with open(path, encoding="utf-8") as handle:
            json.load(handle)
        return True
    except json.JSONDecodeError:
        return False


def main(argv) -> int:
    require_latency = False
    require_scrub = False
    paths = []
    for arg in argv:
        if arg == "--require-latency":
            require_latency = True
        elif arg == "--require-scrub":
            require_scrub = True
        else:
            paths.append(arg)
    if not paths:
        print(
            "usage: validate_trace.py [--require-latency] [--require-scrub] "
            "TRACE [TRACE ...]",
            file=sys.stderr,
        )
        return 2
    for path in paths:
        try:
            validate(path, require_latency, require_scrub)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"{path}: FAIL: {error}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
