"""I/O trace recording and replay.

Traces decouple workload generation from policy evaluation: record one
run's application-level I/O, then replay it bit-identically against any
number of device/policy configurations.  The format is line-oriented
CSV -- ``time_ns,op,lpn,pages,direct`` -- trivially greppable and
diffable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Generator, Iterable, List, Union

from repro.sim.process import Timeout, WaitFor
from repro.workloads.base import Region, Workload

#: Operations a trace record may carry.
_OPS = ("write", "read", "trim")


@dataclass(frozen=True)
class TraceRecord:
    """One application I/O in a trace."""

    time_ns: int
    op: str            #: "write" | "read" | "trim"
    lpn: int
    pages: int
    direct: bool = False

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r}; expected one of {_OPS}")
        if self.time_ns < 0 or self.lpn < 0 or self.pages <= 0:
            raise ValueError(f"invalid trace record {self}")


def save_trace(records: Iterable[TraceRecord], path: Union[str, Path]) -> int:
    """Write records as CSV; returns the count written."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_ns", "op", "lpn", "pages", "direct"])
        for record in records:
            writer.writerow(
                [record.time_ns, record.op, record.lpn, record.pages, int(record.direct)]
            )
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Read a CSV trace; validates every record."""
    out: List[TraceRecord] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            out.append(
                TraceRecord(
                    time_ns=int(row["time_ns"]),
                    op=row["op"],
                    lpn=int(row["lpn"]),
                    pages=int(row["pages"]),
                    direct=bool(int(row["direct"])),
                )
            )
    return out


class TraceRecorder:
    """Subscribe to an :class:`~repro.oskernel.iopath.IoDispatcher` by
    wrapping its write/read/trim methods; collects TraceRecords."""

    def __init__(self, dispatcher, sim) -> None:
        self.records: List[TraceRecord] = []
        self._sim = sim
        self._dispatcher = dispatcher
        self._orig_write = dispatcher.write
        self._orig_read = dispatcher.read
        self._orig_trim = dispatcher.trim
        dispatcher.write = self._write
        dispatcher.read = self._read
        dispatcher.trim = self._trim

    def _write(self, lpn, page_count, direct, on_complete=None):
        self.records.append(
            TraceRecord(self._sim.now, "write", lpn, page_count, direct)
        )
        return self._orig_write(lpn, page_count, direct, on_complete)

    def _read(self, lpn, page_count, on_complete=None):
        self.records.append(TraceRecord(self._sim.now, "read", lpn, page_count))
        return self._orig_read(lpn, page_count, on_complete)

    def _trim(self, lpn, page_count, on_complete=None):
        self.records.append(TraceRecord(self._sim.now, "trim", lpn, page_count))
        return self._orig_trim(lpn, page_count, on_complete)

    def detach(self) -> None:
        """Restore the dispatcher's original methods."""
        self._dispatcher.write = self._orig_write
        self._dispatcher.read = self._orig_read
        self._dispatcher.trim = self._orig_trim


class TraceWorkload(Workload):
    """Replays a trace with its original timing (open-loop).

    Records are issued at their recorded timestamps; if the device lags,
    issuance still follows the trace clock (like ``fio --replay``).
    """

    name = "Trace"

    def __init__(self, host, metrics, region: Region, records: List[TraceRecord], **kwargs):
        super().__init__(host, metrics, region, **kwargs)
        self.records = sorted(records, key=lambda r: r.time_ns)

    def build_actors(self) -> List[Generator]:
        return [self._replayer()]

    def _replayer(self) -> Generator:
        for record in self.records:
            delay = record.time_ns - self.sim.now
            if delay > 0:
                yield Timeout(delay)
            if record.op == "write":
                waiter = WaitFor()
                self.host.dispatcher.write(
                    record.lpn, record.pages, direct=record.direct, on_complete=waiter.wake
                )
                yield waiter
                self.metrics.record_op()
            elif record.op == "read":
                waiter = WaitFor()
                self.host.dispatcher.read(record.lpn, record.pages, on_complete=waiter.wake)
                yield waiter
                self.metrics.record_op()
            else:  # trim
                self.host.dispatcher.trim(record.lpn, record.pages)
                self.metrics.record_op()
