"""Tail-latency attribution: *why* was this op slow?

JIT-GC's claim is that the host never sees a GC-induced stall; a p999
number alone cannot say whether the residual tail is GC at all.  This
module closes the loop:

* :class:`OpLog` -- a structure-of-arrays per-op completion record
  (op kind, issue/complete sim-time, device queue depth at issue),
  appended by the metrics collector behind an ``enabled`` guard exactly
  like the audit log (:data:`DISABLED_OPLOG` is the shared no-op
  default); with a trace open it also writes each op as the trace's
  ``host`` / ``op.complete`` duration event.
* :func:`attribute_tail` -- joins every op above a percentile threshold
  against the decision-audit timeline (FGC stall spans, BGC block
  collections, flusher backpressure spans, fault recoveries, post-SPO
  recovery windows) and classifies it into exactly one cause.

Cause taxonomy, checked in priority order (an op overlapping several
phenomena is charged to the first match -- the most direct mechanism):

1. ``fgc-stall`` -- the op's service window overlaps a foreground-GC
   stall: the device ran out of clean capacity while serving it (or a
   request queued ahead of it) and collected inline.
2. ``bgc-overlap`` -- the window overlaps a background block collection
   (or wear-level move): the op arrived while the device was busy with
   supposedly-idle-time work and waited for the block to finish.
3. ``scrub-interference`` -- the window overlaps a refresh-scrub
   relocation (retention/read-disturb refresh): idle-time reliability
   work, distinguished from reclaim BGC so the scrubber's host impact
   is directly visible.
4. ``flusher-backpressure`` -- the window overlaps a dirty-throttling
   span: the writer was parked until write-back drained the cache (how
   device-level stalls reach buffered applications).
5. ``fault-retry`` -- a media-fault recovery (read retry, rewrite,
   block retirement) fired inside the window.
6. ``mapping-fault`` -- the window overlaps a CMT miss or dirty-entry
   writeback on the DFTL translation path: the op paid a
   translation-page read and/or program out of its own budget.
7. ``recovery-window`` -- the window overlaps a post-power-loss
   recovery scan (only possible in SPO runs).
8. ``media-queueing`` -- none of the above, but the op was issued into
   a non-empty device queue: it waited its turn behind normal traffic.
9. ``none`` -- nothing in the timeline explains it (think-time jitter,
   large requests, cache-miss fills); the catch-all that makes the
   per-cause counts always sum to the slow-op count.

Every classification is mechanical over recorded state, so the same
run always yields the same table -- the attribution is as deterministic
as the simulation it describes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.hdr import nearest_rank
from repro.obs.tracer import NULL_TRACER

#: Cause labels, in attribution priority order (most direct first).
CAUSE_FGC_STALL = "fgc-stall"
CAUSE_BGC_OVERLAP = "bgc-overlap"
CAUSE_SCRUB = "scrub-interference"
CAUSE_FLUSHER = "flusher-backpressure"
CAUSE_FAULT_RETRY = "fault-retry"
CAUSE_MAPPING_FAULT = "mapping-fault"
CAUSE_RECOVERY = "recovery-window"
CAUSE_QUEUEING = "media-queueing"
CAUSE_NONE = "none"

CAUSES: Tuple[str, ...] = (
    CAUSE_FGC_STALL,
    CAUSE_BGC_OVERLAP,
    CAUSE_SCRUB,
    CAUSE_FLUSHER,
    CAUSE_FAULT_RETRY,
    CAUSE_MAPPING_FAULT,
    CAUSE_RECOVERY,
    CAUSE_QUEUEING,
    CAUSE_NONE,
)


class OpLog:
    """Structure-of-arrays store of per-op completion records.

    Parallel lists (one slot per completed op) keep the memory footprint
    flat and the append path allocation-free; the log is bounded like
    the audit log -- past ``limit`` ops recording stops and ``dropped``
    counts the overflow (attribution then covers the recorded prefix).
    The trace, written first, is not bounded: a traced run without tail
    attribution gets a ``limit=0`` log that keeps no op but traces all.
    """

    __slots__ = (
        "enabled", "limit", "kinds", "issue_ns", "complete_ns", "queue_depths",
        "dropped", "tracer",
    )

    def __init__(self, limit: int = 2_000_000, enabled: bool = True) -> None:
        self.enabled = enabled
        self.limit = limit
        self.kinds: List[str] = []
        self.issue_ns: List[int] = []
        self.complete_ns: List[int] = []
        self.queue_depths: List[int] = []
        self.dropped = 0
        #: The run's trace; :class:`repro.obs.Observability` binds it.
        self.tracer = NULL_TRACER

    def record(self, kind: str, issue_ns: int, complete_ns: int, queue_depth: int) -> None:
        """Append one completed op (call sites guard on ``enabled``)."""
        if self.tracer.enabled:
            self.tracer.complete(
                "host",
                "op.complete",
                issue_ns,
                complete_ns - issue_ns,
                kind=kind,
                queue_depth=queue_depth,
            )
        if len(self.issue_ns) >= self.limit:
            self.dropped += 1
            return
        self.kinds.append(kind)
        self.issue_ns.append(issue_ns)
        self.complete_ns.append(complete_ns)
        self.queue_depths.append(queue_depth)

    def __len__(self) -> int:
        return len(self.issue_ns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<OpLog n={len(self)} enabled={self.enabled} dropped={self.dropped}>"


#: Shared disabled op log; the collector defaults to this.
DISABLED_OPLOG = OpLog(limit=0, enabled=False)


@dataclass
class TailReport:
    """Per-cause breakdown of the ops above the latency threshold.

    Attributes:
        threshold_pct: the percentile defining "slow" (default p99).
        threshold_ns: that percentile's latency value; ops with latency
            >= it are classified.
        total_ops: ops in the log.
        slow_ops: ops at or above the threshold.
        causes: cause -> (count, total latency ns).  Counts always sum
            to ``slow_ops`` (``none`` is the catch-all).
    """

    threshold_pct: float
    threshold_ns: int
    total_ops: int
    slow_ops: int
    causes: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def count(self, cause: str) -> int:
        return self.causes.get(cause, (0, 0))[0]

    def total_ns(self, cause: str) -> int:
        return self.causes.get(cause, (0, 0))[1]

    def accounted(self) -> int:
        """Sum of per-cause counts -- always equals ``slow_ops``."""
        return sum(count for count, _ in self.causes.values())

    def to_wire(self) -> Dict[str, List[int]]:
        """JSON-safe ``{cause: [count, total_ns]}`` map."""
        return {cause: [int(c), int(t)] for cause, (c, t) in self.causes.items()}


class SpanIndex:
    """Merged, sorted, non-overlapping intervals with O(log n) overlap
    queries -- the join structure for audit timeline spans."""

    def __init__(self, spans: Sequence[Tuple[int, int]]) -> None:
        merged: List[Tuple[int, int]] = []
        for start, end in sorted((s, e) for s, e in spans if e >= s):
            if merged and start <= merged[-1][1]:
                last_start, last_end = merged[-1]
                merged[-1] = (last_start, max(last_end, end))
            else:
                merged.append((start, end))
        self.starts = [s for s, _ in merged]
        self.ends = [e for _, e in merged]

    def overlaps(self, start: int, end: int) -> bool:
        """True when ``[start, end]`` intersects any stored interval."""
        if not self.starts:
            return False
        # Candidate: the last interval starting at or before `end`.
        index = bisect_right(self.starts, end) - 1
        return index >= 0 and self.ends[index] >= start

    def __len__(self) -> int:
        return len(self.starts)


class PointIndex:
    """Sorted instants with O(log n) any-in-range queries (faults)."""

    def __init__(self, points: Sequence[int]) -> None:
        self.points = sorted(points)

    def any_in(self, start: int, end: int) -> bool:
        index = bisect_right(self.points, end) - 1
        return index >= 0 and self.points[index] >= start

    def __len__(self) -> int:
        return len(self.points)


def attribute_tail(
    oplog: OpLog,
    audit,
    threshold_pct: float = 99.0,
    threshold_ns: Optional[int] = None,
) -> TailReport:
    """Classify every op at or above the latency threshold into a cause.

    Args:
        oplog: the per-op completion log (may be empty or disabled).
        audit: a :class:`~repro.obs.audit.DecisionAuditLog` carrying the
            decision timeline (GC spans, backpressure spans, faults,
            recoveries).  A disabled audit yields an empty timeline, so
            slow ops fall through to ``media-queueing``/``none``.
        threshold_pct: percentile defining "slow"; the threshold value
            is the nearest-rank percentile of the recorded latencies.
        threshold_ns: overrides the computed threshold (used when
            re-attributing against a fixed bar, e.g. across policies).

    Returns a :class:`TailReport` whose cause counts sum to its
    ``slow_ops`` -- every slow op lands in exactly one bucket.
    """
    latencies = [c - i for i, c in zip(oplog.issue_ns, oplog.complete_ns)]
    total_ops = len(latencies)
    if threshold_ns is None:
        if total_ops == 0:
            return TailReport(threshold_pct, 0, 0, 0, {cause: (0, 0) for cause in CAUSES})
        ordered = sorted(latencies)
        threshold_ns = ordered[nearest_rank(threshold_pct, total_ops) - 1]

    fgc = SpanIndex([(r.t_ns, r.t_ns + r.dur_ns) for r in audit.fgc_spans()])
    # Background spans split by origin: refresh-scrub relocations get
    # their own cause.
    background = audit.bgc_spans()
    bgc = SpanIndex([(r.t_ns, r.t_ns + r.dur_ns) for r in background if not r.scrub])
    scrub = SpanIndex([(r.t_ns, r.t_ns + r.dur_ns) for r in background if r.scrub])
    backpressure = SpanIndex(
        [(r.t_ns, r.t_ns + r.dur_ns) for r in audit.backpressure_spans]
    )
    recovery = SpanIndex([(r.t_ns, r.t_ns + r.duration_ns) for r in audit.recoveries])
    faults = PointIndex([r.t_ns for r in audit.faults])
    mapping_faults = SpanIndex(
        [(r.t_ns, r.t_ns + r.dur_ns) for r in audit.mapping_fault_spans]
    )

    counts: Dict[str, int] = {cause: 0 for cause in CAUSES}
    totals: Dict[str, int] = {cause: 0 for cause in CAUSES}
    slow_ops = 0
    for index in range(total_ops):
        latency = latencies[index]
        if latency < threshold_ns:
            continue
        slow_ops += 1
        issue = oplog.issue_ns[index]
        complete = oplog.complete_ns[index]
        if fgc.overlaps(issue, complete):
            cause = CAUSE_FGC_STALL
        elif bgc.overlaps(issue, complete):
            cause = CAUSE_BGC_OVERLAP
        elif scrub.overlaps(issue, complete):
            cause = CAUSE_SCRUB
        elif backpressure.overlaps(issue, complete):
            cause = CAUSE_FLUSHER
        elif faults.any_in(issue, complete):
            cause = CAUSE_FAULT_RETRY
        elif mapping_faults.overlaps(issue, complete):
            cause = CAUSE_MAPPING_FAULT
        elif recovery.overlaps(issue, complete):
            cause = CAUSE_RECOVERY
        elif oplog.queue_depths[index] > 0:
            cause = CAUSE_QUEUEING
        else:
            cause = CAUSE_NONE
        counts[cause] += 1
        totals[cause] += latency

    return TailReport(
        threshold_pct=threshold_pct,
        threshold_ns=int(threshold_ns),
        total_ops=total_ops,
        slow_ops=slow_ops,
        causes={cause: (counts[cause], totals[cause]) for cause in CAUSES},
    )


def causes_from_wire(wire: Optional[Mapping]) -> Dict[str, Tuple[int, int]]:
    """Inverse of :meth:`TailReport.to_wire` for RunMetrics transport."""
    if not wire:
        return {}
    return {str(cause): (int(pair[0]), int(pair[1])) for cause, pair in wire.items()}
