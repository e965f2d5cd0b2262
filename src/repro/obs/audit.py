"""Decision-audit records: *why* the system did what it did, when.

JIT-GC's claim is temporal -- BGC runs as late as possible, only when
``Tidle < Tgc`` -- so end-of-window aggregates cannot falsify it.  The
audit log captures every decision with its full inputs:

* :class:`ManagerTickRecord` -- one per JIT-GC manager tick: the demand
  vectors, ``Cfree``, the Sec 3.3 time estimates, the branch taken
  (``no-bgc`` / ``defer`` / ``invoke``) and the reclaim quota issued.
* :class:`VictimRecord` -- one per GC victim selection: chosen block,
  its valid-page count and selector score, and the SIP-filter outcome
  (how many better-ranked candidates were skipped).
* :class:`FaultRecord` -- one per injected-fault *recovery*: the fault
  kind and how the FTL resolved it (read-retry, rewrite-elsewhere,
  block retirement, data loss).
* :class:`GcSpanRecord` / :class:`BackpressureRecord` -- device GC
  occupancy intervals and kernel dirty-throttling episodes: the
  timeline the tail-latency attribution engine
  (:mod:`repro.obs.attribution`) joins slow host ops against.

Records are plain frozen dataclasses so tests can assert on them
directly; the log is bounded (oldest runs of a long simulation matter
less than its recent behaviour is *not* assumed -- instead recording
simply stops at the cap and the drop count is reported).

The records are also the trace's typed events: :meth:`DecisionAuditLog.record`
keeps each one in the log list its ``store`` names and, with a trace
open, writes it there as a single event on the record's ``track`` under
its ``event`` name -- ``t_ns`` becomes
``ts``, a ``dur_ns`` field makes it a duration event, and every other
field is an arg.  No site writes these facts to the tracer itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional

from repro.obs.tracer import NULL_TRACER, Tracer

#: Manager branch outcomes (see ManagerDecision.branch).
BRANCH_NO_BGC = "no-bgc"
BRANCH_DEFER = "defer"
BRANCH_INVOKE = "invoke"

#: :attr:`GcSpanRecord.event` of a foreground stall and of a
#: refresh-scrub relocation (the device names the other idle work).
FGC_STALL = "fgc.stall"
SCRUB_BLOCK = "scrub.block"


@dataclass(frozen=True)
class ManagerTickRecord:
    """Full inputs and outcome of one JIT-GC manager tick.

    Attributes:
        t_ns: sim time of the tick.
        dbuf_bytes / ddir_bytes: summed buffered / direct demand vectors
            fed to the manager (``Creq = dbuf + ddir``).
        creq_bytes / cfree_bytes: the Sec 3.3 comparison operands.
        tw_ns / tidle_ns / tgc_ns: the time estimates (0 on the fast
            ``Cfree >= Creq`` path).
        reclaim_bytes: ``Dreclaim`` from the deferral rule.
        guard_bytes: demand-coverage guard contribution (0 when the
            deferral rule alone set the quota).
        quota_pages: pages of reclaim actually handed to the device.
        branch: which rule fired -- ``no-bgc``, ``defer`` or ``invoke``.
        write_bw / gc_bw: bandwidth estimates (bytes/s) used for
            ``Tw``/``Tgc``, recorded so the rule can be re-derived.
        sip_pages: size of the SIP list downloaded this tick.
    """

    store: ClassVar[str] = "manager_ticks"
    track: ClassVar[str] = "manager"
    event: ClassVar[str] = "manager.tick"

    t_ns: int
    dbuf_bytes: int
    ddir_bytes: int
    creq_bytes: int
    cfree_bytes: int
    tw_ns: int
    tidle_ns: int
    tgc_ns: int
    reclaim_bytes: int
    guard_bytes: int
    quota_pages: int
    branch: str
    write_bw: float
    gc_bw: float
    sip_pages: int = 0


@dataclass(frozen=True)
class VictimRecord:
    """One GC victim selection.

    Attributes:
        t_ns: sim time (FTL clock) of the selection.
        block: the chosen victim.
        valid_pages: its valid-page count (the migration cost).
        score: selector-specific ranking score of the winner.
        candidates_considered: candidate pool size examined.
        filtered_by_sip: better-ranked candidates skipped as SIP-heavy.
        background: True for BGC, False for a foreground stall.
    """

    store: ClassVar[str] = "victim_selections"
    track: ClassVar[str] = "ftl"
    event: ClassVar[str] = "victim.select"

    t_ns: int
    block: int
    valid_pages: Optional[int]
    score: Optional[float]
    candidates_considered: int
    filtered_by_sip: int
    background: bool


@dataclass(frozen=True)
class FaultRecord:
    """One fault-recovery episode on the FTL datapath.

    Attributes:
        t_ns: sim time (FTL clock).
        kind: fault category (``read`` / ``program`` / ``erase``).
        block / page: physical location (page -1 for block-level faults).
        resolution: how the FTL resolved it -- ``read-retry``,
            ``data-lost``, ``block-retired``, ``rewrite``.
        retries: recovery attempts spent before resolution.
    """

    store: ClassVar[str] = "faults"
    track: ClassVar[str] = "faults"

    t_ns: int
    kind: str
    block: int
    page: int
    resolution: str
    retries: int = 0

    @property
    def event(self) -> str:
        return f"fault.{self.kind}"


@dataclass(frozen=True)
class GcSpanRecord:
    """One GC occupancy interval on the device.

    The tail-latency attribution engine (:mod:`repro.obs.attribution`)
    joins slow host ops against these spans: an op whose service window
    overlaps a foreground span stalled on GC directly; one overlapping a
    background span waited behind supposedly-idle-time work.

    Attributes:
        t_ns: span start (sim time).
        dur_ns: span length.
        event: what occupied the device -- :data:`FGC_STALL` (a
            foreground stall inside a host request), ``bgc.block``,
            :data:`SCRUB_BLOCK` or ``wear_level.block`` (one idle-time
            block); also the span's trace event name.
        pages: foreground -- the stalled request's page count;
            background collection -- net pages freed by it; 0 for
            scrub and wear-level moves.
    """

    store: ClassVar[str] = "gc_spans"
    track: ClassVar[str] = "device"

    t_ns: int
    dur_ns: int
    event: str
    pages: int = 0

    @property
    def background(self) -> bool:
        """Idle-time work rather than a foreground stall."""
        return self.event != FGC_STALL

    @property
    def scrub(self) -> bool:
        """A refresh-scrub relocation: attributed as
        ``scrub-interference`` rather than ``bgc-overlap``."""
        return self.event == SCRUB_BLOCK


@dataclass(frozen=True)
class BackpressureRecord:
    """One dirty-throttling episode in the kernel write path.

    Spans from the first writer parked on the throttle to the drain that
    released the last one -- the window in which buffered applications
    feel device-level stalls (the paper's Fig. 3 coupling).

    Attributes:
        t_ns: first park (sim time).
        dur_ns: span length (park to final release).
        writers: writer parks during the episode.
    """

    store: ClassVar[str] = "backpressure_spans"
    track: ClassVar[str] = "flusher"
    event: ClassVar[str] = "backpressure"

    t_ns: int
    dur_ns: int
    writers: int = 1


@dataclass(frozen=True)
class MappingFaultRecord:
    """One CMT miss or writeback on the DFTL translation path.

    Only accesses that cost NAND time are recorded: a CMT hit is free
    and a clean eviction writes nothing.  The attribution engine joins
    slow host ops against these spans under the ``mapping-fault`` cause.

    Attributes:
        t_ns: span start (sim time, FTL clock).
        dur_ns: NAND time charged to the host op (translation-page read
            on a miss, plus program when a dirty entry was evicted).
        tvpn: the translation page the access looked up.
        kind: ``miss`` (read only) or ``writeback`` (dirty eviction
            programmed, possibly on top of a miss read).
        pages: translation pages touched (read + programmed).
    """

    store: ClassVar[str] = "mapping_fault_spans"
    track: ClassVar[str] = "ftl"
    event: ClassVar[str] = "ftl.mapping_fault"

    t_ns: int
    dur_ns: int
    tvpn: int
    kind: str
    pages: int = 1


@dataclass(frozen=True)
class CheckpointRecord:
    """One durable mapping checkpoint written to the NAND metadata region.

    Attributes:
        t_ns: sim time (FTL clock) of the checkpoint program.
        generation: monotonic checkpoint generation stamp.
        meta_pages: metadata pages the record occupies.
        horizon_seq: the write-sequence horizon snapshotted -- every OOB
            stamp and tombstone at or past it postdates this checkpoint.
        trigger: what caused it (``interval`` / ``recovery`` / ``manual``).
    """

    store: ClassVar[str] = "checkpoints"
    track: ClassVar[str] = "ftl"
    event: ClassVar[str] = "ftl.checkpoint"

    t_ns: int
    generation: int
    meta_pages: int
    horizon_seq: int
    trigger: str = "interval"


@dataclass(frozen=True)
class RecoveryRecord:
    """One post-power-loss recovery scan.

    Attributes:
        t_ns: sim time of the power cut.
        duration_ns: modelled scan cost (one OOB read per scanned page
            plus one read per surviving metadata page).
        pages_scanned: programmed pages swept (the tail past the
            checkpoint's program pointers, or every programmed page on
            the full-scan path).
        torn_pages: consumed-but-unstamped pages discarded.
        stale_pages: out-place-superseded copies discarded.
        mapped_lpns: logical pages whose newest copy survived.
        free_blocks / closed_blocks / retired_blocks: re-discovered
            layout (pool, GC candidates, grown-bad set).
        read_only: the recovered device came back write-refusing.
        full_scan: True when no usable checkpoint bounded the scan.
        checkpoint_generation: generation loaded (-1 on the full scan).
        tombstones_replayed: journaled unmap entries that won the merge.
        torn_meta_records: torn/corrupt metadata records discarded.
        checkpoint_fallbacks: torn checkpoints skipped before a complete
            (older) generation was found.
    """

    store: ClassVar[str] = "recoveries"
    track: ClassVar[str] = "spo"
    event: ClassVar[str] = "recovery"

    t_ns: int
    duration_ns: int
    pages_scanned: int
    torn_pages: int
    stale_pages: int
    mapped_lpns: int
    free_blocks: int
    closed_blocks: int
    retired_blocks: int
    read_only: bool = False
    full_scan: bool = True
    checkpoint_generation: int = -1
    tombstones_replayed: int = 0
    torn_meta_records: int = 0
    checkpoint_fallbacks: int = 0


@dataclass
class DecisionAuditLog:
    """Bounded in-memory store of decision records, one list per type.

    Hot paths guard recording with ``if audit.enabled:`` so the disabled
    default (:data:`DISABLED_AUDIT`) costs one attribute check.  Each
    store is capped at ``limit`` on its own; the trace, written before
    the cap check, is not.
    """

    enabled: bool = True
    limit: int = 200_000
    manager_ticks: List[ManagerTickRecord] = field(default_factory=list)
    victim_selections: List[VictimRecord] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    checkpoints: List[CheckpointRecord] = field(default_factory=list)
    gc_spans: List[GcSpanRecord] = field(default_factory=list)
    backpressure_spans: List[BackpressureRecord] = field(default_factory=list)
    mapping_fault_spans: List[MappingFaultRecord] = field(default_factory=list)
    dropped: int = 0
    #: The run's trace; :class:`repro.obs.Observability` binds it.
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)

    # ------------------------------------------------------------------
    def record(self, rec) -> None:
        """Keep ``rec`` in its type's store; with a trace open, first
        write it there as one event (see the module docstring)."""
        if not self.enabled:
            return
        if self.tracer.enabled:
            args = dict(vars(rec))
            ts = args.pop("t_ns")
            args.pop("event", None)
            dur = args.pop("dur_ns", None)
            if dur is None:
                self.tracer.instant(rec.track, rec.event, ts, **args)
            else:
                self.tracer.complete(rec.track, rec.event, ts, dur, **args)
        store = getattr(self, rec.store)
        if len(store) < self.limit:
            store.append(rec)
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    # Query helpers
    # ------------------------------------------------------------------
    def ticks(self, branch: Optional[str] = None) -> List[ManagerTickRecord]:
        """Manager ticks, optionally filtered by branch taken."""
        if branch is None:
            return list(self.manager_ticks)
        return [t for t in self.manager_ticks if t.branch == branch]

    def filtered_selections(self) -> List[VictimRecord]:
        """Victim selections in which at least one candidate was skipped."""
        return [v for v in self.victim_selections if v.filtered_by_sip > 0]

    def fgc_spans(self) -> List[GcSpanRecord]:
        """Foreground-GC stall intervals, in record order."""
        return [s for s in self.gc_spans if not s.background]

    def bgc_spans(self) -> List[GcSpanRecord]:
        """Background collection (and wear-level) intervals."""
        return [s for s in self.gc_spans if s.background]

    def total_records(self) -> int:
        return (
            len(self.manager_ticks)
            + len(self.victim_selections)
            + len(self.faults)
            + len(self.recoveries)
            + len(self.checkpoints)
            + len(self.gc_spans)
            + len(self.backpressure_spans)
            + len(self.mapping_fault_spans)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DecisionAuditLog ticks={len(self.manager_ticks)} "
            f"victims={len(self.victim_selections)} faults={len(self.faults)}>"
        )


#: Shared disabled audit log; components default their ``audit`` to this.
DISABLED_AUDIT = DecisionAuditLog(enabled=False)
