"""Sim-time tracing: a near-zero-overhead-when-disabled event API.

Components hold a :class:`Tracer` (default: the shared :data:`NULL_TRACER`)
and guard every emission site with ``if self.tracer.enabled:`` so the
disabled hot-path cost is a single attribute load plus a branch -- no
argument packing, no dict allocation.  Enabled tracers stamp each record
with the simulated clock and hand it to a pluggable sink:

* :class:`JsonlTraceSink` -- one JSON object per line, header first;
  greppable, streamable, diffable.
* :class:`ChromeTraceSink` -- the Chrome ``trace_event`` JSON object
  format, loadable directly in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``; each trace category becomes its own track and
  duration events render as slices.
* :class:`InMemorySink` -- list of records, for tests.

Record phases follow the trace_event convention: ``"i"`` instant,
``"X"`` complete (duration), ``"C"`` counter.  All timestamps are the
*simulated* clock in integer nanoseconds; wall time never appears in a
trace (see :mod:`repro.obs.profiler` for wall-clock profiling).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

#: Trace-record phases (a subset of the trace_event phase alphabet).
PHASE_INSTANT = "i"
PHASE_COMPLETE = "X"
PHASE_COUNTER = "C"

#: Format tag written into every trace header.
TRACE_FORMAT_VERSION = "repro-trace/1"


class TraceSink:
    """Receives normalized trace records and persists them somewhere."""

    def write(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Flush and release any resources; idempotent."""


class InMemorySink(TraceSink):
    """Keeps records in a list -- the test double."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.closed = False

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True

    def by_name(self, name: str) -> List[Dict[str, Any]]:
        """All records with the given event name (test convenience)."""
        return [r for r in self.records if r.get("name") == name]


class JsonlTraceSink(TraceSink):
    """One JSON object per line; the first line is the run header.

    Args:
        path: output file path (opened and owned by the sink).
        header: run-attribution fields (seed, fault profile, policy, ...)
            written as the ``{"type": "header"}`` first line so any tool
            reading the file -- or a human resuming a checkpointed sweep
            -- can attribute the trace without external context.
    """

    def __init__(
        self, path: Union[str, Path], header: Optional[Dict[str, Any]] = None
    ) -> None:
        self.path = Path(path)
        self._file = open(self.path, "w", encoding="utf-8")
        head = {"type": "header", "format": TRACE_FORMAT_VERSION, "time_unit": "ns"}
        head.update(header or {})
        self._file.write(json.dumps(head) + "\n")
        self.events_written = 0

    def write(self, record: Dict[str, Any]) -> None:
        payload = {"type": "event"}
        payload.update(record)
        self._file.write(json.dumps(payload) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class ChromeTraceSink(TraceSink):
    """Chrome ``trace_event`` JSON object format (Perfetto-loadable).

    Events are buffered and written on :meth:`close` as::

        {"traceEvents": [...], "otherData": {...header...},
         "displayTimeUnit": "ms"}

    Simulated nanoseconds map to the format's microsecond ``ts``/``dur``
    fields (divided by 1000, fractional part kept).  Each trace category
    gets its own thread id, named via ``thread_name`` metadata events, so
    GC invocations, flusher wakeups and FGC stalls land on separate
    per-component tracks.
    """

    #: All tracks share one synthetic process.
    PID = 1

    def __init__(
        self, path: Union[str, Path], header: Optional[Dict[str, Any]] = None
    ) -> None:
        self.path = Path(path)
        self.header = dict(header or {})
        self.header.setdefault("format", TRACE_FORMAT_VERSION)
        self._events: List[Dict[str, Any]] = []
        self._tids: Dict[str, int] = {}
        self._closed = False

    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[track] = tid
        return tid

    def write(self, record: Dict[str, Any]) -> None:
        track = record.get("cat", "sim")
        event: Dict[str, Any] = {
            "name": record.get("name", ""),
            "cat": track,
            "ph": record.get("ph", PHASE_INSTANT),
            "ts": record.get("ts", 0) / 1000.0,
            "pid": self.PID,
            "tid": self._tid(track),
        }
        if event["ph"] == PHASE_INSTANT:
            event["s"] = "t"  # thread-scoped instant marker
        if "dur" in record:
            event["dur"] = record["dur"] / 1000.0
        args = record.get("args")
        if args:
            event["args"] = args
        self._events.append(event)

    def _metadata_events(self) -> List[Dict[str, Any]]:
        meta: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": self.PID,
                "tid": 0,
                "ts": 0,
                "args": {"name": "repro-sim"},
            }
        ]
        for track, tid in self._tids.items():
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": self.PID,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": track},
                }
            )
        return meta

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Events are buffered in *emission* order, but duration events
        # whose ts is an earlier start time (per-op completions, FGC
        # stalls) arrive out of ts order; viewers and the validator
        # require monotone timestamps per track, so sort before writing.
        # The sort is stable: same-ts events keep their emission order.
        self._events.sort(key=lambda event: event["ts"])
        document = {
            "traceEvents": self._metadata_events() + self._events,
            "otherData": self.header,
            "displayTimeUnit": "ms",
        }
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class Tracer:
    """Emits sim-time-stamped events to a sink.

    Args:
        sink: destination for records.
        clock: zero-arg callable returning the current simulated time in
            nanoseconds; bound to ``sim.now`` by
            :meth:`repro.obs.Observability.install`.
    """

    __slots__ = ("sink", "clock", "enabled")

    def __init__(self, sink: TraceSink, clock: Optional[Callable[[], int]] = None) -> None:
        self.sink = sink
        self.clock = clock or (lambda: 0)
        self.enabled = True

    # ------------------------------------------------------------------
    def emit(self, category: str, name: str, **fields: Any) -> None:
        """Instant event at the current sim time on the given track."""
        self.instant(category, name, self.clock(), **fields)

    def instant(self, category: str, name: str, ts_ns: int, **fields: Any) -> None:
        """Instant event at sim time ``ts_ns``."""
        self.sink.write(
            {
                "ph": PHASE_INSTANT,
                "cat": category,
                "name": name,
                "ts": ts_ns,
                "args": fields,
            }
        )

    def complete(
        self, category: str, name: str, start_ns: int, dur_ns: int, **fields: Any
    ) -> None:
        """Duration event spanning ``[start_ns, start_ns + dur_ns]``."""
        self.sink.write(
            {
                "ph": PHASE_COMPLETE,
                "cat": category,
                "name": name,
                "ts": start_ns,
                "dur": dur_ns,
                "args": fields,
            }
        )

    def counter(self, category: str, name: str, values: Dict[str, float]) -> None:
        """Counter sample; Perfetto renders these as counter tracks."""
        self.sink.write(
            {
                "ph": PHASE_COUNTER,
                "cat": category,
                "name": name,
                "ts": self.clock(),
                "args": values,
            }
        )

    def close(self) -> None:
        self.sink.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} enabled={self.enabled}>"


class NullTracer(Tracer):
    """The disabled tracer: every method is a no-op.

    ``enabled`` is False, so instrumentation sites guarded with
    ``if tracer.enabled:`` never build event payloads; unguarded cold-path
    calls still cost only an empty method invocation.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(TraceSink.__new__(TraceSink))
        self.enabled = False

    def emit(self, category: str, name: str, **fields: Any) -> None:
        pass

    def instant(self, category: str, name: str, ts_ns: int, **fields: Any) -> None:
        pass

    def complete(
        self, category: str, name: str, start_ns: int, dur_ns: int, **fields: Any
    ) -> None:
        pass

    def counter(self, category: str, name: str, values: Dict[str, float]) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared disabled tracer; components default their ``tracer`` to this.
NULL_TRACER = NullTracer()
