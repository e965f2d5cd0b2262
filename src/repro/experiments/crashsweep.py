"""Crash-point sweeps and mid-run power-loss experiments.

Two entry points, both built on the durable-media capture of
:mod:`repro.faults.powerloss` and the OOB recovery scan of
:mod:`repro.ftl.recovery`:

* :func:`run_crash_sweep` -- the exhaustive harness.  One live host runs
  a GC-heavy scenario; every ``stride_events`` dispatched events the
  harness snapshots the durable media image, tears the in-flight
  frontier pages on the *copy* (exactly what a real cut at that instant
  would do), recovers a fresh FTL from the copy and verifies it against
  the still-running original: same L2P table, same valid counts, same
  erase counts, and -- the read-identity witness -- the OOB ``(lpn,
  seq)`` stamp of every mapped page matches, so any host read on the
  recovered device returns the same physical page contents a
  never-crashed device would serve.  Hundreds of crash points cost one
  simulation, not hundreds.

* :func:`run_scenario_with_spo` -- the live-cut experiment.  Power is
  actually cut at each planned instant (:class:`~repro.faults.powerloss.
  SpoPlan`): the event queue dies, the media image is captured, a new
  device is recovered from it (fresh fault injector, same profile) and
  the workload resumes on a new host at ``cut + scan`` time.  Per-phase
  metrics are merged into one :class:`~repro.metrics.collector.
  RunMetrics` with ``spo_count`` / ``recovery_time_ns`` filled in.

The sweep's equality checks are strict and hold for TRIM-issuing
scenarios too: host discards are journaled as durable tombstones before
the device acknowledges them (DESIGN.md "Durable metadata"), so a
recovered device never resurrects pre-TRIM mappings.  With
``nested_every`` set, the sweep additionally crashes *the recovery
itself* at selected points -- the recovered device writes its
post-recovery checkpoint, the rail dies mid-program (the half-written
record is torn), and a second recovery from that doubly-crashed image
must still match the live reference.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, field, fields, replace
from multiprocessing.connection import Connection, Pipe
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.experiments.runner import (
    ScenarioSpec,
    _advance_tolerating_death,
    build_preconditioned_host,
    resolve_jobs,
)
from repro.faults.powerloss import PowerCut, PowerLossEmulator, SpoPlan
from repro.ftl.ftl import DeviceReadOnlyError, FtlError, PageMappedFtl
from repro.ftl.mapping import UNMAPPED
from repro.ftl.recovery import RecoveryReport, recover_ftl
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector, RunMetrics, merge_phase_metrics
from repro.nand.array import STATE_ERASED, STATE_OPEN, NandArray
from repro.obs.audit import RecoveryRecord
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.workloads import WORKLOADS, Region


class CrashPointMismatch(AssertionError):
    """Recovered state diverged from the live reference at a crash point."""


# ----------------------------------------------------------------------
# Crash-point verification
# ----------------------------------------------------------------------
@dataclass
class CrashPointCheck:
    """Outcome of one simulated crash point.

    Attributes:
        index: ordinal position in the sweep.
        t_ns: sim time of the (simulated) cut.
        events_dispatched: total events dispatched when the point fired.
        ok: recovery passed every check.
        error: failure description (empty when ``ok``).
        torn_pages / pages_scanned / mapped_lpns / scan_ns: from the
            recovery report.
        read_only: the recovered device came back write-refusing.
        nested: this point also crashed the recovery itself (torn
            post-recovery checkpoint) and verified the second power-on.
            False when the nested pass was scheduled but did not run (the
            first recovery came back read-only) or did not pass.
    """

    index: int
    t_ns: int
    events_dispatched: int
    ok: bool = False
    error: str = ""
    torn_pages: int = 0
    pages_scanned: int = 0
    mapped_lpns: int = 0
    scan_ns: int = 0
    read_only: bool = False
    nested: bool = False


@dataclass
class CrashSweepResult:
    """All crash points of one sweep plus the scenario identity."""

    scenario: str
    stride_events: int
    points: List[CrashPointCheck] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for p in self.points if p.ok)

    @property
    def failed(self) -> List[CrashPointCheck]:
        return [p for p in self.points if not p.ok]

    def ok(self) -> bool:
        return bool(self.points) and not self.failed

    def summary(self) -> str:
        span = (
            f"{self.points[0].t_ns}-{self.points[-1].t_ns} ns"
            if self.points
            else "empty"
        )
        torn = sum(point.torn_pages for point in self.points)
        return (
            f"crash sweep [{self.scenario}]: {self.passed}/{len(self.points)} "
            f"points recovered consistently (span {span}, stride "
            f"{self.stride_events} events, {torn} torn pages discarded)"
        )


def _expected_free_blocks(nand: NandArray, streams: int) -> int:
    """Media-visible free-pool expectation: every good ERASED block,
    less one per write stream that lacks an OPEN block to resume
    (``streams`` is 3 in dftl mode -- user, GC and translation)."""
    erased = int((nand.block_states == STATE_ERASED).sum())
    open_count = int((nand.block_states == STATE_OPEN).sum())
    return erased - max(0, streams - open_count)


class _LiveSide(NamedTuple):
    """The live reference of one crash point, computed once and shared by
    its first and its nested re-check (the live FTL does not move while
    the point is verified): read-only views of the live L2P and GTD (the
    latter dftl only) and the mapped LPNs."""

    l2p: np.ndarray
    mapped: np.ndarray
    gtd: Optional[np.ndarray]


def _live_side(live_ftl: PageMappedFtl) -> _LiveSide:
    l2p = live_ftl.page_map.l2p_view()
    return _LiveSide(
        l2p=l2p,
        mapped=np.flatnonzero(l2p != UNMAPPED),
        gtd=live_ftl.page_map.directory(),
    )


def _check_recovered_against_live(
    live_ftl: PageMappedFtl,
    live: _LiveSide,
    ftl: PageMappedFtl,
    nand: NandArray,
    report: RecoveryReport,
    expected_free: int,
    sample_reads: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> None:
    """The crash-point equality battery (see :func:`verify_crash_point`).

    Raises :class:`CrashPointMismatch` on the first divergence between
    the recovered device (``ftl`` over ``nand``) and the live reference
    (``live_ftl``, with ``live`` its precomputed side).
    """
    live_nand = live_ftl.nand
    rec_l2p = ftl.page_map.l2p_view()
    if not np.array_equal(live.l2p, rec_l2p):
        diff = int(np.count_nonzero(live.l2p != rec_l2p))
        raise CrashPointMismatch(
            f"L2P mismatch after recovery: {diff} LPNs map differently"
        )
    if ftl.page_map.mapped_count != live_ftl.page_map.mapped_count:
        raise CrashPointMismatch(
            f"mapped_count {ftl.page_map.mapped_count} != "
            f"{live_ftl.page_map.mapped_count}"
        )
    if not np.array_equal(
        ftl.page_map.valid_counts(), live_ftl.page_map.valid_counts()
    ):
        raise CrashPointMismatch("per-block valid counts diverged")
    if not np.array_equal(nand.erase_counts, live_nand.erase_counts):
        raise CrashPointMismatch("erase counters diverged across the cut")
    if ftl._write_seq != live_ftl._write_seq:
        raise CrashPointMismatch(
            f"write_seq {ftl._write_seq} != live {live_ftl._write_seq}"
        )
    if live.gtd is not None:
        # The translation tier must survive the cut bit-identically too:
        # same GTD (every translation page's newest on-NAND copy) and
        # matching OOB stamps at those physical locations (below).
        rec_gtd = ftl.page_map.directory()
        if not np.array_equal(live.gtd, rec_gtd):
            diff = int(np.count_nonzero(live.gtd != rec_gtd))
            raise CrashPointMismatch(
                f"GTD mismatch after recovery: {diff} TVPNs map differently"
            )
        if ftl.page_map.gtd_mapped_count != live_ftl.page_map.gtd_mapped_count:
            raise CrashPointMismatch(
                f"gtd_mapped_count {ftl.page_map.gtd_mapped_count} != "
                f"{live_ftl.page_map.gtd_mapped_count}"
            )

    # Read identity: with page payloads not modelled, a physical page's
    # content *is* its (lpn, seq) stamp -- equal stamps at equal PPNs
    # means every post-recovery host read returns bit-identical data.
    # The two images differ in few pages if any, so diff the OOB columns
    # whole (contiguous) and ask whether a differing page is mapped.
    differs = np.flatnonzero(
        (nand.oob_lpn != live_nand.oob_lpn) | (nand.oob_seq != live_nand.oob_seq)
    )
    if differs.size:
        if live.gtd is not None and np.isin(differs, live.gtd).any():
            raise CrashPointMismatch("OOB stamps of mapped translation pages diverged")
        if np.isin(differs, live.l2p[live.mapped]).any():
            raise CrashPointMismatch("OOB stamps of mapped pages diverged")
    if live.mapped.size and sample_reads > 0:
        rng = rng if rng is not None else np.random.default_rng(0)
        picks = rng.choice(live.mapped, size=min(sample_reads, live.mapped.size))
        for lpn in picks:
            ftl.host_read_page(int(lpn))

    if not report.read_only and ftl.free_pool_blocks() != expected_free:
        raise CrashPointMismatch(
            f"free pool {ftl.free_pool_blocks()} != expected {expected_free}"
        )


def verify_crash_point(
    live_ftl: PageMappedFtl,
    config: SsdConfig,
    sample_reads: int = 8,
    rng: Optional[np.random.Generator] = None,
    nested: bool = False,
) -> RecoveryReport:
    """Crash the device *hypothetically* at this instant and verify.

    Captures the durable media image of ``live_ftl`` without disturbing
    it, replays the cut on a copy (frontier pages torn, DRAM discarded),
    recovers a fresh FTL from the copy and checks it against the live
    reference.  Raises :class:`CrashPointMismatch` on any divergence;
    recovery-time failures (:class:`~repro.ftl.recovery.RecoveryError`)
    propagate as-is.

    The checks, in order of strength:

    1. recovered L2P table identical to the live one;
    2. per-block valid counts and total mapped count identical;
    3. erase counters identical (wear survives the cut);
    4. next write-sequence stamp identical (monotonicity across cuts);
    5. read identity -- every mapped LPN's OOB ``(lpn, seq)`` stamp on
       the recovered media equals the live one, and ``sample_reads``
       random mapped LPNs serve an actual :meth:`host_read_page`;
    6. free-pool size equals the torn image's erased-block count minus
       the frontiers recovery had to open fresh (a frontier whose block
       the cut left FULL -- or whose tear filled it -- cannot resume).

    With ``nested=True`` the point is verified *twice*: after the first
    recovery passes, the recovered device writes a post-recovery
    checkpoint, the rail "dies" mid-program (the half-written record is
    torn), and a second recovery from that doubly-crashed image must
    pass the same battery -- the crash-during-recovery-after-crash case.
    """
    streams = len(live_ftl.frontiers)
    nand = config.restore_nand(live_ftl.nand.capture_durable_state())
    for frontier in live_ftl.frontiers:
        nand.tear_frontier_page(frontier.block)
    expected_free = _expected_free_blocks(nand, streams)

    ftl, report = recover_ftl(nand, config)
    live = _live_side(live_ftl)
    _check_recovered_against_live(
        live_ftl, live, ftl, nand, report, expected_free, sample_reads, rng
    )

    if nested and not ftl.read_only:
        # Second cut, mid-recovery: the first power-on checkpointed its
        # rebuilt mapping, and the rail dies while that record programs.
        ftl.write_checkpoint(trigger="recovery")
        durable = ftl.nand.capture_durable_state()
        # The first power-on is verified: free it before the second one is
        # built, so the two never hold device-sized arrays at once.
        del ftl, nand
        nand = config.restore_nand(durable)
        del durable
        nand.meta.tear_last()
        # The scan is read-only and the torn checkpoint never becomes
        # load-bearing, so the second power-on must see the same state.
        ftl, nested_report = recover_ftl(nand, config)
        _check_recovered_against_live(
            live_ftl,
            live,
            ftl,
            nand,
            nested_report,
            _expected_free_blocks(nand, streams),
            sample_reads,
            rng,
        )
    return report


# ----------------------------------------------------------------------
# The exhaustive sweep
# ----------------------------------------------------------------------
#: A scenario tuned so GC runs constantly under the sweep: a 90 %
#: working set over a logically-full (prefilled + churned) device keeps
#: the free pool near the FGC watermark, so crash points land inside
#: foreground GC, background GC and frontier rolls -- the states
#: recovery must get right.
GC_HEAVY = ScenarioSpec(
    blocks=256, working_set_fraction=0.9, warmup_s=2, measure_s=30, tau_expire_s=2
)


def gc_heavy_spec(trim_heavy: bool = False, **overrides) -> ScenarioSpec:
    """:data:`GC_HEAVY` with ``overrides`` (any :class:`ScenarioSpec` field).

    ``trim_heavy`` switches to the synthetic workload with a quarter of
    its operations issued as discards, so crash points land between a
    TRIM's journal write and the next host program -- the window the
    persisted unmap journal exists for.  The other knobs put more states
    under the sweep: ``checkpoint_interval`` checkpoint programs and
    bounded tail scans; ``warm_start="analytic"`` analytically
    constructed images; ``mapping="dftl"`` translation-page writebacks,
    translation-block GC and the torn translation frontier;
    ``reliability`` refresh-scrub relocations and a retention clock that
    rides the durable image.
    """
    if trim_heavy:
        overrides = {
            "workload": "Synthetic",
            "workload_kwargs": {
                "trim_fraction": 0.25,
                "write_fraction": 0.85,
                "zipf_theta": 0.9,
            },
            **overrides,
        }
    return replace(GC_HEAVY, **overrides)


#: The most ranks a crash sweep runs, whatever ``jobs`` asks for and
#: however many CPUs there are.  Rank 0 replays the whole reference run
#: (about as costly as all the verification in the crash-sweep cell) and
#: verifies the tail; the one child rank verifies the head and replays
#: only that far.  No rank count takes the window below the reference
#: run, while each rank costs a CPU and its own heap (about 66 MiB
#: there).  Two ranks is what was measured (PERFORMANCE.md "Splitting a
#: crash sweep where its ranks' remaining work meets").
MAX_RANKS = 2


def _reference_run(
    host: HostSystem, end: int, points: int, stride_events: int
) -> Iterator[CrashPointCheck]:
    """Advance the reference run to each crash point in turn.

    Yields each point's check, not yet verified, with the live host
    stopped at the point's instant.  Stops early when the measurement
    window ends or the run stalls (terminal read-only device with a
    drained queue).  Verifying a point leaves the live host untouched,
    so both ranks, running this from the same set-up, meet the same
    points.
    """
    sim = host.sim
    for index in range(points):
        if sim.now >= end:
            return
        before = sim.dispatched
        try:
            sim.run_until(end, max_events=stride_events)
        except DeviceReadOnlyError:
            pass
        if sim.dispatched == before and sim.now >= end:
            return
        yield CrashPointCheck(index=index, t_ns=sim.now, events_dispatched=sim.dispatched)
        if sim.dispatched == before:
            return  # queue drained; no further state changes to crash into


def _verify_point(
    check: CrashPointCheck,
    host: HostSystem,
    seed: int,
    sample_reads: int,
    nested_every: int,
) -> None:
    """Verify one crash point of the live ``host`` into ``check``; every
    ``nested_every``-th point (if > 0) is verified nested.

    A check failure is recorded on ``check``; anything else raises.  The
    sample reads draw from the point's own stream, so what a point reads
    does not depend on which points were verified before it, or where.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC4A5, check.index)))
    nested = nested_every > 0 and check.index % nested_every == 0
    try:
        report = verify_crash_point(
            host.ftl, host.config, sample_reads=sample_reads, rng=rng, nested=nested
        )
    except (CrashPointMismatch, FtlError) as exc:
        check.error = f"{type(exc).__name__}: {exc}"
        return
    check.ok = True
    # verify_crash_point runs the second power-on exactly when the first
    # one came back writable.
    check.nested = nested and not report.read_only
    check.torn_pages = report.torn_pages
    check.pages_scanned = report.pages_scanned
    check.mapped_lpns = report.mapped_lpns
    check.scan_ns = report.duration_ns
    check.read_only = report.read_only


def _sendable(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a ``RuntimeError`` naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any pickling failure
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _how_it_ended(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"


class _Gather:
    """Rank 0's side of a split sweep.

    Rank 0 replays the whole reference run but verifies nothing until it
    claims the tail.  It does so at the first point ``p`` with ``2p >=
    points + c``, ``c`` being the points already in, or at once when
    there is no child (left): it asks the child to stop at ``p`` and
    waits for the answer, the index the child stops at (``p``, or its
    next point if it is already past ``p``).  Points below the answered
    index are the child's, and rank 0 verifies the rest.  At that moment
    the child has ``p - c`` points left to replay and verify and rank 0
    ``points - p``: the split follows how far each rank got, not a fixed
    fraction, so it holds whatever a replay costs against a verification.

    Holds every point of rank 0's own reference run, what each point's
    verification came to and the child rank while it runs, and moves
    points into ``result.points`` (calling ``progress`` on each) in index
    order as soon as every lower index is in.  A point whose
    verification raised re-raises on its turn; a point the child ended
    without reporting is recorded as failed, unless rank 0 can still
    verify it; a reported point whose instant differs from rank 0's is
    recorded as failed too (the ranks replayed different runs).
    """

    def __init__(
        self,
        result: CrashSweepResult,
        progress: Optional[Callable[[CrashPointCheck], None]],
        points: int,
    ) -> None:
        self.result = result
        self.progress = progress
        self.points = points
        #: The running child rank's pid and rank 0's end of its pipe.
        self.child: Optional[Tuple[int, Connection]] = None
        #: How the child ended, once its pipe closed.
        self.ended = ""
        #: One past the last point the child reported.
        self.reported = 0
        #: The index from which rank 0 verifies, once it has claimed.
        self.tail_from: Optional[int] = None
        #: The first point rank 0 can still verify.
        self.at = 0
        self.reference: List[CrashPointCheck] = []
        #: Index -> the point's verified check, or what its verification raised.
        self.outcomes: Dict[int, Union[CrashPointCheck, BaseException]] = {}

    def reached(self, check: CrashPointCheck) -> bool:
        """Rank 0's replay stands at ``check``: take in what the child
        sent, claim the tail if its time has come, and say whether rank 0
        verifies this point."""
        self.reference.append(check)
        self.at = check.index
        self.receive(0)
        if self.tail_from is None and (
            self.child is None or 2 * check.index >= self.points + len(self.result.points)
        ):
            self.claim(check.index)
        return self.tail_from is not None and check.index >= self.tail_from

    def claim(self, at: int) -> None:
        """Ask the child, if any, to stop at ``at`` and wait for its answer."""
        if self.child is None:
            self.tail_from = at
            return
        try:
            self.child[1].send(at)
        except OSError:
            pass  # it has ended; receive() takes its end-of-file
        while self.tail_from is None:
            self.receive(None)

    def receive(self, timeout: Optional[float]) -> None:
        """Take in every message the child sent, waiting up to ``timeout``
        for the first, then move every point whose turn has come into the
        result."""
        while self.child is not None and self.child[1].poll(timeout):
            timeout = 0
            pid, conn = self.child
            try:
                message = conn.recv()
            except (EOFError, ConnectionResetError):
                # A child that died with the claim unread resets the pipe.
                self.child = None
                conn.close()
                self.ended = _how_it_ended(os.waitpid(pid, 0)[1])
                if self.tail_from is None:
                    # Rank 0 takes over the rest of its points from the
                    # first one it can still reach.
                    self.tail_from = max(self.at, self.reported)
                break
            if isinstance(message, int):  # its answer to the claim
                self.tail_from = message
                continue
            index, outcome = message
            self.outcomes[index] = outcome
            self.reported = index + 1
        self.emit()

    def emit(self) -> None:
        """Move every point whose turn has come into the result."""
        points = self.result.points
        while len(points) < len(self.reference):
            index = len(points)
            expected = self.reference[index]
            check = self.outcomes.get(index)
            if isinstance(check, BaseException):
                raise check
            if check is None:
                if not self.ended or index >= self.tail_from:
                    return  # the child, or rank 0, may still verify it
                check = expected
                check.error = f"rank 1 {self.ended} before it reported this point"
            elif (check.t_ns, check.events_dispatched) != (
                expected.t_ns,
                expected.events_dispatched,
            ):
                expected.error = (
                    f"rank 1 replayed a different run: its point {index} "
                    f"fell at {check.t_ns} ns"
                )
                check = expected
            points.append(check)
            if self.progress is not None:
                self.progress(check)

    def finish(self) -> None:
        """Rank 0's replay is over: wait for the child rank until every
        point has had its turn."""
        self.at = len(self.reference)
        self.receive(0)
        while self.child is not None and len(self.result.points) < len(self.reference):
            self.receive(None)

    def reap(self, kill: bool) -> None:
        """Wait for the child rank if it still runs (killing it first when
        ``kill``), so it does not outlive the sweep."""
        if self.child is None:
            return
        pid, conn = self.child
        self.child = None
        conn.close()
        if kill:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        os.waitpid(pid, 0)


def _serve_rank(
    conn: Connection,
    reference: Iterator[CrashPointCheck],
    verify: Callable[[CrashPointCheck], None],
) -> None:
    """The child rank's whole life: replay the reference run from the
    start and send back ``(index, check)`` for each point once verified,
    until the point where rank 0 claims the tail.  Before each point it
    looks for the claim; it answers with the index it stops at, the
    claimed one or this point if it is already past it, and leaves
    there.  Its first point that raises goes back as ``(index,
    exception)`` and ends the rank."""
    stop = None
    for check in reference:
        if stop is None and conn.poll():
            stop = max(conn.recv(), check.index)
            conn.send(stop)
        if stop is not None and check.index >= stop:
            return
        try:
            verify(check)
        except Exception as exc:  # noqa: BLE001 - re-raised by rank 0
            conn.send((check.index, _sendable(exc)))
            return
        conn.send((check.index, check))


def run_crash_sweep(
    spec: ScenarioSpec,
    points: int = 100,
    stride_events: int = 512,
    sample_reads: int = 8,
    progress: Optional[Callable[[CrashPointCheck], None]] = None,
    nested_every: int = 0,
    jobs: Optional[int] = 0,
) -> CrashSweepResult:
    """Verify crash-consistent recovery at up to ``points`` instants.

    Drives one live host through ``spec`` and, every ``stride_events``
    dispatched simulator events past warm-up, runs
    :func:`verify_crash_point` against it.  The sweep stops early if the
    measurement window ends or the simulation stalls (terminal
    read-only device with a drained queue).

    ``nested_every=k`` (k > 0) upgrades every k-th point to the nested
    crash-during-recovery verification: recover, checkpoint, tear the
    half-written checkpoint, recover again, re-verify.

    ``jobs`` ranks split the verification (``0``/``None``: one per usable
    CPU, see :func:`~repro.experiments.runner.resolve_jobs`; any count is
    capped at :data:`MAX_RANKS`; always 1 where the platform cannot
    fork; a negative count raises :class:`ValueError`).  With two ranks
    the sweep forks one child rank after set-up.  The child verifies the
    head of the sweep from point 0 and replays the deterministic
    reference run only that far.  The calling process, rank 0, replays
    the whole run and claims the tail where the two ranks' remaining
    work meets (see :class:`_Gather`); with ``jobs=1`` it claims at point
    0.  No device state crosses a process boundary: the child sends back
    each finished :class:`CrashPointCheck`, and rank 0 adds them to the
    result and calls ``progress`` in index order.  Rank 0's live host
    ends where an unsplit sweep leaves it, the result is the same for
    every ``jobs``, and the child does not outlive the call.

    Every check failure is recorded, not raised -- the result object
    reports pass/fail per point (``result.ok()`` for the verdict); so is
    a point the child died before reporting.  Any other exception a
    verification raises is re-raised in its point's turn, and later
    points are dropped.  Fewer than one point, or a stride under one
    event, would verify nothing yet report success, so both raise
    :class:`ValueError`.
    """
    if points < 1 or stride_events < 1:
        raise ValueError(
            f"a crash sweep needs points >= 1 and stride_events >= 1, "
            f"got points={points}, stride_events={stride_events}"
        )
    jobs = resolve_jobs(jobs, min(points, MAX_RANKS))
    if not hasattr(os, "fork"):
        jobs = 1
    host, _collector, workload, measure_start = build_preconditioned_host(spec)
    end = measure_start + spec.measure_s * SECOND

    def verify(check: CrashPointCheck) -> None:
        _verify_point(check, host, spec.seed, sample_reads, nested_every)

    result = CrashSweepResult(scenario=spec.key(), stride_events=stride_events)
    gather = _Gather(result, progress, points)
    try:
        if jobs > 1:
            conn, child_conn = Pipe()
            pid = os.fork()
            if pid == 0:  # the child rank: it never returns from here
                status = 1
                try:
                    conn.close()
                    _serve_rank(
                        child_conn, _reference_run(host, end, points, stride_events), verify
                    )
                    status = 0
                finally:
                    os._exit(status)
            child_conn.close()
            gather.child = (pid, conn)
        for check in _reference_run(host, end, points, stride_events):
            if not gather.reached(check):
                continue
            try:
                verify(check)
            except Exception as exc:  # noqa: BLE001 - raised on its turn
                gather.outcomes[check.index] = exc
                break
            gather.outcomes[check.index] = check
            gather.emit()
        gather.finish()
    except BaseException:
        gather.reap(kill=True)
        raise
    gather.reap(kill=False)
    workload.stop()
    return result


# ----------------------------------------------------------------------
# Live SPO runs with post-recovery continuation
# ----------------------------------------------------------------------
@dataclass
class SpoRunResult:
    """One scenario run that survived real power cuts.

    Attributes:
        metrics: phase metrics merged into one run-level view
            (``spo_count`` and ``recovery_time_ns`` populated).
        phases: the per-phase windows as measured.
        cuts: the emulated power cuts, in order.
        reports: the recovery-scan report of each power-back-on.
    """

    metrics: RunMetrics
    phases: List[RunMetrics] = field(default_factory=list)
    cuts: List[PowerCut] = field(default_factory=list)
    reports: List[RecoveryReport] = field(default_factory=list)


def run_scenario_with_spo(spec: ScenarioSpec, plan: SpoPlan) -> SpoRunResult:
    """Run ``spec`` with real power cuts per ``plan``.

    Each cut kills the host mid-run (queued events die, frontier pages
    tear, DRAM state is lost); a fresh device is recovered from the
    durable media image (new fault injector over the same profile) and
    a new host resumes the timeline at ``cut + recovery scan`` (plus the
    post-recovery checkpoint, when the config enables checkpointing).
    The measurement window is the same as a cut-free run's; metric
    windows spanning a cut are split into phases and merged; no phase
    opens at or past the window's end.  Each host traces to its own
    file: recovery n's to ``spec.obs.with_suffix(f"phase{n}")``.

    Recovery is re-entrant: a planned cut landing *inside* a recovery
    window (scan or post-recovery checkpoint still in progress when the
    rail dies again) is honoured, not skipped -- the half-written
    checkpoint is torn and the device recovers again from the
    doubly-crashed image.
    """
    host, collector, workload, measure_start = build_preconditioned_host(spec)
    config = host.config
    working_set = workload.region.pages
    measure_end = measure_start + spec.measure_s * SECOND
    cuts_planned = [
        t for t in plan.cut_times(measure_start, measure_end) if 0 < t < measure_end
    ]
    emulator = PowerLossEmulator()
    reports: List[RecoveryReport] = []
    phases: List[RunMetrics] = []

    # A post-recovery checkpoint only makes sense when the scenario
    # checkpoints at all (otherwise the next power-on full-scans anyway).
    post_checkpoint = config.checkpoint_interval_pages is not None

    # Process the timeline's stop points in order.  "begin" sorts before
    # a cut at the same instant so the window opens first.
    stops: List[Tuple[int, int, str]] = sorted(
        [(measure_start, 0, "begin")]
        + [(t, 1, "cut") for t in cuts_planned]
        + [(measure_end, 2, "end")]
    )
    measuring = False
    phase = 0
    index = 0
    while index < len(stops):
        t, _, kind = stops[index]
        index += 1
        if t > host.sim.now:
            _advance_tolerating_death(host, t - host.sim.now)
        if kind == "begin":
            # A recovery that outlasted the window leaves nothing to measure.
            measuring = host.sim.now < measure_end
            if measuring:
                collector.begin()
            continue
        if kind == "end":
            if measuring:
                collector.end()
                phases.append(collector.results())
            break
        # kind == "cut"
        if measuring:
            collector.end()
            phases.append(collector.results())
        cut = emulator.cut_power(host)
        host.obs.finish()
        while True:
            phase += 1
            ftl, report = config.recover_from(
                cut.durable,
                seed=spec.seed + 7919 * phase + 1,
                post_checkpoint=post_checkpoint,
            )
            reports.append(report)
            resume_ns = cut.t_ns + report.duration_ns + report.post_checkpoint_ns
            # Consume planned cuts that land before the device is
            # host-ready again: the rail dies *during* the recovery.  The
            # scan itself is read-only, so the nested cut's durable image
            # differs from the previous one only when it catches the
            # post-recovery checkpoint mid-program -- in which case that
            # record tears.
            nested = index < len(stops) and stops[index][2] == "cut"
            if not nested or stops[index][0] >= resume_ns:
                break
            # Any cut before host-ready catches the post-recovery
            # checkpoint not-yet-durable (mid-program, or not started):
            # tear it, so the next power-on cannot lean on it.
            cut = emulator.cut_recovery(
                ftl.nand,
                t_ns=stops[index][0],
                tear_checkpoint=report.post_checkpoint_ns > 0,
            )
            index += 1
        policy = spec.make_policy()
        obs = spec.obs and spec.obs.with_suffix(f"phase{phase}")
        # recover_from built the FTL before the policy existed;
        # HostSystem installs this policy's selector on it, so victim
        # ranking (and its SIP statistics) match a fresh device.
        host = HostSystem(
            config,
            policy,
            seed=spec.seed + 104_729 * phase,
            flusher_period_ns=spec.flusher_period_s * SECOND,
            tau_expire_ns=spec.tau_expire_s * SECOND,
            ftl=ftl,
            start_time_ns=resume_ns,
            obs=replace(spec, obs=obs).make_obs(),
        )
        if host.ftl.audit.enabled:
            host.ftl.audit.record(
                RecoveryRecord(
                    t_ns=cut.t_ns,
                    **{
                        f.name: getattr(report, f.name)
                        for f in fields(RecoveryRecord)
                        if f.name != "t_ns"
                    },
                )
            )
        collector = MetricsCollector(host, workload_name=spec.workload)
        workload = WORKLOADS[spec.workload](
            host, collector, Region(0, working_set), **spec.workload_kwargs
        )
        workload.start()
        measuring = measuring and resume_ns < measure_end
        if measuring:
            collector.begin()
    workload.stop()
    host.obs.finish()

    merged = merge_phase_metrics(
        phases,
        spo_count=len(emulator.cuts),
        recovery_time_ns=sum(r.duration_ns for r in reports),
    )
    return SpoRunResult(
        metrics=merged, phases=phases, cuts=emulator.cuts, reports=reports
    )

