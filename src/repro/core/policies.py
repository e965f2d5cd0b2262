"""The background-GC policies evaluated in the paper.

Every policy is a :class:`~repro.ssd.device.ReclaimController` (the
device consults it when idle) plus an :meth:`attach` hook that wires the
policy into the host system (flusher ticks, completion listeners).  The
four policies of Fig. 7, plus helpers:

* :class:`NoBgcPolicy` -- foreground GC only (ablation baseline).
* :class:`FixedReservePolicy` -- keep ``Cfree >= Cresv`` with
  ``Cresv = k x C_OP``; ``k = 0.5`` is the paper's **L-BGC**, ``k = 1.5``
  its **A-BGC**, and the sweep over ``k`` is Fig. 2.
* :class:`AdaptiveGcPolicy` -- **ADP-GC**: dynamically sizes the reserve
  from a device-internal CDH over *all* writes; no page-cache knowledge,
  no buffered/direct distinction, no SIP filtering (Sec 4.2).
* :class:`JitGcPolicy` -- **JIT-GC**: the paper's contribution; page
  cache scanning for buffered demand, CDH for direct demand, the
  Sec 3.3 ``Tidle``/``Tgc`` deferral rule, and SIP-filtered victim
  selection.

Prediction accuracy (Table 2) is tracked inside the two predicting
policies with a one-tick delay so a prediction made at tick ``t`` for
interval ``[t+p, t+2p)`` is scored against the write traffic actually
observed in that interval.
"""

from __future__ import annotations

from typing import Optional

from repro.core.accuracy import PredictionAccuracyTracker
from repro.core.buffered_predictor import BufferedWritePredictor
from repro.core.cdh import CumulativeDataHistogram
from repro.core.direct_predictor import DirectWritePredictor
from repro.core.manager import JitGcManager
from repro.ftl.victim import SipFilteredSelector, VictimSelector
from repro.obs.audit import DISABLED_AUDIT, ManagerTickRecord
from repro.obs.tracer import NULL_TRACER
from repro.oskernel.cache import PageCache
from repro.oskernel.flusher import FlusherThread
from repro.sim.engine import Simulator
from repro.sim.events import PRIORITY_CONTROL
from repro.ssd.device import ReclaimController, SsdDevice
from repro.ssd.interface import ExtendedHostInterface
from repro.ssd.request import IoKind, IoRequest


#: CDH observation windows pre-loaded by an analytic warm start --
#: roughly what a default simulated warm-up leaves behind (40 s of
#: warm-up over 6 s expiry windows), so seeded and simulated histories
#: decay at the same rate once real traffic arrives.
_CDH_SEED_WINDOWS = 8


class GcPolicy(ReclaimController):
    """Base class: a reclaim controller that can be wired into a host."""

    #: Short name used in experiment reports.
    name = "abstract"
    #: Sim-time tracer / decision-audit log / metrics registry; the
    #: class-level no-op defaults cost one attribute check on hot paths
    #: and are replaced per instance by :meth:`observe`.
    tracer = NULL_TRACER
    audit = DISABLED_AUDIT
    registry = None

    def make_victim_selector(self) -> Optional[VictimSelector]:
        """Victim selector to install in the FTL (None = FTL default)."""
        return None

    def observe(self, obs) -> None:
        """Adopt a run's :class:`~repro.obs.Observability` instruments."""
        self.tracer = obs.tracer
        self.audit = obs.audit
        self.registry = obs.registry

    def attach(
        self,
        sim: Simulator,
        device: SsdDevice,
        cache: PageCache,
        flusher: FlusherThread,
    ) -> None:
        """Wire the policy into a constructed host system."""
        self.sim = sim
        self.device = device
        self.cache = cache
        self.flusher = flusher
        self.interface = ExtendedHostInterface(device)

    def seed_steady_state(self, prediction) -> None:
        """Adopt an analytic steady-state prediction (warm start).

        Called after :meth:`attach` when the run starts from a
        synthesized steady state (``--warm-start analytic``) instead of
        a simulated warm-up.  Stateless policies need nothing; policies
        with demand history (the CDH family) override this so their
        first read-outs are consistent with the installed free pool
        rather than with an empty histogram.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class NoBgcPolicy(GcPolicy):
    """Never runs background GC; every reclaim is a foreground stall."""

    name = "NO-BGC"

    def reclaim_demand_pages(self, device: SsdDevice) -> int:
        return 0


class FixedReservePolicy(GcPolicy):
    """Keep a fixed reserved capacity ``Cresv = cresv_over_op x C_OP``.

    Whenever the device is idle and ``Cfree < Cresv`` (after the paper's
    ``Cresv <= Cunused + C_OP`` cap), BGC collects blocks until the
    reserve is restored.  This is the family the paper's Fig. 2 sweeps
    and whose endpoints are L-BGC and A-BGC.
    """

    def __init__(self, cresv_over_op: float, name: Optional[str] = None) -> None:
        if cresv_over_op < 0:
            raise ValueError(f"cresv_over_op must be >= 0, got {cresv_over_op}")
        self.cresv_over_op = cresv_over_op
        self.name = name or f"FIXED-{cresv_over_op:g}OP"

    def target_pages(self, device: SsdDevice) -> int:
        space = device.ftl.space
        requested = space.reserved_pages(self.cresv_over_op)
        return space.clamp_reserved_pages(requested, device.ftl.used_pages())

    def reclaim_demand_pages(self, device: SsdDevice) -> int:
        return max(0, self.target_pages(device) - device.ftl.free_pages())


def lazy_bgc_policy() -> FixedReservePolicy:
    """The paper's L-BGC: ``Cresv = 0.5 x C_OP``."""
    return FixedReservePolicy(0.5, name="L-BGC")


def aggressive_bgc_policy() -> FixedReservePolicy:
    """The paper's A-BGC: ``Cresv = 1.5 x C_OP``."""
    return FixedReservePolicy(1.5, name="A-BGC")


class AdaptiveGcPolicy(GcPolicy):
    """ADP-GC: adaptive reserve from a device-internal CDH (Sec 4.2).

    Sees only device-level traffic: every write (buffered write-back and
    direct alike) feeds one CDH; the reserve target is its
    ``percentile`` read-out.  No SIP information reaches the garbage
    collector.
    """

    name = "ADP-GC"

    def __init__(
        self,
        percentile: float = 0.8,
        bin_bytes: int = 64 * 1024,
        window: int = 64,
    ) -> None:
        self.percentile = percentile
        self.bin_bytes = bin_bytes
        self.window = window
        self._target_bytes = 0

    def attach(self, sim, device, cache, flusher) -> None:
        super().attach(sim, device, cache, flusher)
        self.cdh = CumulativeDataHistogram(self.bin_bytes, self.window)
        self.tau_expire_ns = flusher.tau_expire_ns
        self.period_ns = flusher.period_ns
        self.nwb = flusher.nwb
        self.accuracy = PredictionAccuracyTracker(horizon_intervals=self.nwb)
        self._window_bytes = 0
        self._window_started = 0
        device.completion_listeners.append(self._on_completion)
        # The ADP tick is device-internal: it does not depend on the
        # flusher, so it runs on its own timer at the same period.
        sim.schedule(self.period_ns, self._tick, priority=PRIORITY_CONTROL)

    def seed_steady_state(self, prediction) -> None:
        """Pre-load the CDH with the predicted per-horizon write volume.

        A cold CDH reads percentile 0 until enough ``tau_expire``
        windows close, which would leave ADP-GC defending no reserve at
        the start of a warm-started measurement window.  Seeding a
        simulated warm-up's worth of windows (not the full CDH depth)
        makes the initial target consistent with the installed free pool
        while letting real traffic take over at the same rate it would
        after a simulated warm-up.
        """
        seeded = min(self.window, _CDH_SEED_WINDOWS)
        for _ in range(seeded):
            self.cdh.observe(prediction.window_write_bytes)
        self._target_bytes = self.cdh.percentile_bytes(self.percentile)

    # ------------------------------------------------------------------
    def _on_completion(self, request: IoRequest) -> None:
        if not request.is_write:
            return
        nbytes = request.page_count * self.device.config.geometry.page_size
        self._window_bytes += nbytes
        self.accuracy.record_actual_bytes(nbytes)

    def _tick(self) -> None:
        now = self.sim.now
        # Close CDH observation windows.
        while now - self._window_started >= self.tau_expire_ns:
            self.cdh.observe(self._window_bytes)
            self._window_bytes = 0
            self._window_started += self.tau_expire_ns

        delta = self.cdh.percentile_bytes(self.percentile)
        self._target_bytes = delta
        # Table 2 bookkeeping: ADP-GC's horizon demand estimate is its
        # CDH read-out (it has nothing finer-grained to offer).
        self.accuracy.on_tick()
        self.accuracy.predict(delta)

        if self.tracer.enabled:
            self.tracer.emit("manager", "adp.tick", target_bytes=delta)

        self.device.kick_bgc()
        self.sim.schedule(self.period_ns, self._tick, priority=PRIORITY_CONTROL)

    def reclaim_demand_pages(self, device: SsdDevice) -> int:
        page = device.config.geometry.page_size
        space = device.ftl.space
        target = space.clamp_reserved_pages(
            self._target_bytes // page, device.ftl.used_pages()
        )
        return max(0, target - device.ftl.free_pages())


class JitGcPolicy(GcPolicy):
    """JIT-GC: just-in-time background garbage collection (Sec 3).

    Args:
        direct_percentile: CDH percentile for the direct-write predictor.
        sip_fraction_threshold: SIP dominance threshold for victim
            filtering; ``None`` disables SIP filtering (the ablation that
            isolates the manager from the collector extension).
        strict_buffered_predictor: use the non-relaxed flush-condition
            model (ablation; paper uses the relaxed one).
    """

    name = "JIT-GC"

    def __init__(
        self,
        direct_percentile: float = 0.8,
        sip_fraction_threshold: Optional[float] = 0.5,
        strict_buffered_predictor: bool = False,
        cdh_bin_bytes: int = 64 * 1024,
        guard_intervals: Optional[int] = None,
    ) -> None:
        self.direct_percentile = direct_percentile
        self.sip_fraction_threshold = sip_fraction_threshold
        self.strict_buffered_predictor = strict_buffered_predictor
        self.cdh_bin_bytes = cdh_bin_bytes
        if guard_intervals is not None and guard_intervals < 0:
            raise ValueError(f"guard_intervals must be >= 0, got {guard_intervals}")
        self.guard_intervals = guard_intervals
        self._quota_pages = 0
        #: Flush-cause counters: pages written back at age (the rule the
        #: buffered predictor models) vs early (fsync/volume pressure).
        self._aged_flush_pages = 0
        self._early_flush_pages = 0
        self._selector: Optional[SipFilteredSelector] = None
        #: Last manager decision (observability / tests).
        self.last_decision = None

    def make_victim_selector(self) -> Optional[VictimSelector]:
        if self.sip_fraction_threshold is None:
            return None
        self._selector = SipFilteredSelector(self.sip_fraction_threshold)
        return self._selector

    def attach(self, sim, device, cache, flusher) -> None:
        super().attach(sim, device, cache, flusher)
        self.buffered_predictor = BufferedWritePredictor(
            cache,
            flusher.period_ns,
            flusher.tau_expire_ns,
            strict=self.strict_buffered_predictor,
            tau_flush_pages=flusher.tau_flush_pages,
        )
        self.direct_predictor = DirectWritePredictor(
            flusher.period_ns,
            flusher.tau_expire_ns,
            percentile=self.direct_percentile,
            bin_bytes=self.cdh_bin_bytes,
        )
        # Early (fsync / volume-pressure) write-back is a recurring bulk
        # flow: the median window estimates it without locking onto the
        # occasional whole-file-fsync peak the way the p80 rule -- meant
        # for scarce, latency-critical direct writes -- would.
        self.early_flush_predictor = DirectWritePredictor(
            flusher.period_ns,
            flusher.tau_expire_ns,
            percentile=0.5,
            bin_bytes=self.cdh_bin_bytes,
        )
        self.manager = JitGcManager(flusher.tau_expire_ns)
        self.accuracy = PredictionAccuracyTracker(horizon_intervals=flusher.nwb)
        device.completion_listeners.append(self._on_completion)
        cache.writeback_listeners.append(self._on_writeback)
        flusher.tick_hooks.append(self._tick)

    # ------------------------------------------------------------------
    def _on_completion(self, request: IoRequest) -> None:
        if not request.is_write:
            return
        nbytes = request.page_count * self.device.config.geometry.page_size
        if request.kind == IoKind.DIRECT_WRITE:
            self.direct_predictor.record_direct_bytes(nbytes, self.sim.now)
        self.accuracy.record_actual_bytes(nbytes)

    def _on_writeback(self, moved) -> None:
        """Feed *early* flushes into the CDH.

        A page written back before its ``tau_expire`` age -- an fsync or
        a volume-pressure flush -- escaped the age-based rule the
        buffered predictor models, so from the predictor's standpoint it
        behaves like a direct write: recurring but not scan-predictable.
        The direct-write CDH is exactly the tool for that class (and the
        page cache, being host-side, can tell the two flush causes
        apart by age).
        """
        now = self.sim.now
        tau = self.buffered_predictor.tau_expire_ns
        page = self.device.config.geometry.page_size
        early_pages = sum(1 for _, last_update in moved if now - last_update < tau)
        self._early_flush_pages += early_pages
        self._aged_flush_pages += len(moved) - early_pages
        if early_pages:
            self.early_flush_predictor.record_direct_bytes(early_pages * page, now)

    def _age_rule_fraction(self) -> float:
        """Observed share of buffered write-back that follows the age
        rule.  ``Dbuf`` is scaled by this so pages destined to leave
        early (fsync/volume) are not counted twice -- once in the scan
        and once in the early-flush CDH."""
        total = self._aged_flush_pages + self._early_flush_pages
        if total == 0:
            return 1.0
        return self._aged_flush_pages / total

    def _tick(self, now: int) -> None:
        """Runs right after each flusher wake-up (paper Sec 3.2.1)."""
        if self.device.ftl.read_only:
            # Terminal degraded state: there is no free capacity to fund
            # and no BGC worth scheduling; the manager stands down.
            return
        prediction = self.buffered_predictor.predict(now)
        age_fraction = self._age_rule_fraction()
        if age_fraction < 1.0:
            prediction.demands_bytes = [
                int(d * age_fraction) for d in prediction.demands_bytes
            ]
        # DFTL induces translation-page writebacks per host page (CMT
        # evictions + GC of translation blocks).  Those programs consume
        # free capacity just like host data, so Dbuf must fund them or
        # the deferral rule under-reclaims and the shortfall lands as
        # foreground GC.  Observed overhead is 0.0 in dram mode, leaving
        # the historical estimate bit-identical.
        trans_overhead = self.device.ftl.translation_write_overhead()
        if trans_overhead > 0.0:
            prediction.demands_bytes = [
                int(d * (1.0 + trans_overhead)) for d in prediction.demands_bytes
            ]
        # Refresh-scrub relocations likewise consume frontier capacity:
        # the trailing scrub-pages-per-host-page ratio scales Dbuf so
        # JIT-GC provisions for reliability traffic too.  0.0 with the
        # scrubber off -- the historical estimate stays bit-identical.
        scrub_overhead = self.device.ftl.scrub_write_overhead()
        if scrub_overhead > 0.0:
            prediction.demands_bytes = [
                int(d * (1.0 + scrub_overhead)) for d in prediction.demands_bytes
            ]
        ddir = self.direct_predictor.predict(now)
        dearly = self.early_flush_predictor.predict(now)
        ddir = [d + e for d, e in zip(ddir, dearly)]
        sip_set = prediction.sip.as_set()
        self.interface.set_sip_list(sip_set)

        cfree = self.interface.query_free_capacity()
        decision = self.manager.decide(
            prediction.demands_bytes,
            ddir,
            cfree,
            self.device.write_bandwidth.bytes_per_second,
            self.device.gc_bandwidth.bytes_per_second,
        )
        self.last_decision = decision
        # Table 2 bookkeeping: score the horizon demand estimate Creq.
        self.accuracy.on_tick()
        self.accuracy.predict(decision.creq_bytes)

        # Demand-coverage guard.  The paper's Tidle/Tgc rule schedules
        # *when* to reclaim, assuming demand arrives evenly across the
        # horizon; real demand is bursty (an ON phase can consume several
        # intervals' worth at once) and a mid-interval shortfall becomes
        # foreground GC.  The guard therefore funds the predicted demand
        # of the next `guard_intervals` intervals up front -- with the
        # default (full horizon) this realises the paper's headline
        # behaviour, "JIT-GC creates an exact free space required for
        # future writes in advance": the reserve tracks predicted demand
        # (not a fixed multiple of OP), and BGC fills it only from real
        # idle time.  Pass a small guard_intervals to study the pure
        # deferral rule (DESIGN.md ablation #3).
        guard = self.guard_intervals
        if guard is None:
            guard = len(prediction.demands_bytes)
        near_term = sum(prediction.demands_bytes[:guard]) + sum(ddir[:guard])
        guard_bytes = max(0, near_term - cfree)

        page = self.device.config.geometry.page_size
        reclaim_bytes = max(decision.reclaim_bytes, guard_bytes)
        self._quota_pages = -(-reclaim_bytes // page)  # ceil

        if self.audit.enabled:
            self.audit.record(
                ManagerTickRecord(
                    t_ns=now,
                    dbuf_bytes=sum(prediction.demands_bytes),
                    ddir_bytes=sum(ddir),
                    creq_bytes=decision.creq_bytes,
                    cfree_bytes=decision.cfree_bytes,
                    tw_ns=decision.tw_ns,
                    tidle_ns=decision.tidle_ns,
                    tgc_ns=decision.tgc_ns,
                    reclaim_bytes=decision.reclaim_bytes,
                    guard_bytes=guard_bytes,
                    quota_pages=self._quota_pages,
                    branch=decision.branch,
                    write_bw=self.device.write_bandwidth.bytes_per_second,
                    gc_bw=self.device.gc_bandwidth.bytes_per_second,
                    sip_pages=len(sip_set),
                )
            )
        if self.registry is not None:
            self.registry.series("manager.creq_bytes").append(now, decision.creq_bytes)

        if self._quota_pages > 0:
            if self.tracer.enabled:
                self.tracer.emit(
                    "manager",
                    "bgc.invoke",
                    quota_pages=self._quota_pages,
                    reclaim_bytes=reclaim_bytes,
                )
            self.interface.invoke_bgc()

    def reclaim_demand_pages(self, device: SsdDevice) -> int:
        return self._quota_pages

    def on_block_collected(self, device: SsdDevice, freed_pages: int) -> None:
        self._quota_pages = max(0, self._quota_pages - max(0, freed_pages))

