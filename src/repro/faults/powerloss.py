"""Sudden-power-off (SPO) emulation.

A power cut is not a NAND-op fault: it kills the whole controller at an
arbitrary simulated instant.  Three things happen, in order:

1. **Torn pages** -- any program in flight on a write frontier is
   interrupted: the page's cells are partially charged (it is consumed
   -- erase-before-write still applies) but its OOB stamp never landed,
   so recovery can detect and discard it
   (:meth:`~repro.nand.array.NandArray.tear_frontier_page`).
2. **Durable capture** -- the media image that survives
   (:meth:`~repro.nand.array.NandArray.capture_durable_state`): block
   states, program pointers, OOB columns, erase counts, the bad-block
   table.  Controller DRAM -- the mapping, indexes, page cache, queued
   I/O -- is gone.
3. **Event-queue drop** -- every pending simulator event dies with the
   rail (:meth:`~repro.sim.engine.Simulator.power_cut`).

SPO composes with the per-operation fault profiles
(none/light/heavy/wearout): the cut is orthogonal to injected media
faults, and a post-recovery phase re-arms a fresh injector over the same
profile.  :class:`SpoPlan` describes *when* cuts happen -- explicitly
scheduled times, N seed-deterministic random times in the measurement
window, or "every k events" for exhaustive crash-point sweeps
(:mod:`repro.experiments.crashsweep`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.nand.array import NandDurableState


@dataclass(frozen=True)
class SpoPlan:
    """When sudden power-offs strike a run.

    Attributes:
        at_ns: explicitly scheduled cut times (absolute sim ns).
        random_cuts: number of additional uniformly-random cuts drawn in
            the measurement window, seed-deterministically.
        seed: seed for the random cut draws (independent of workload and
            fault-injector streams).
    """

    at_ns: Tuple[int, ...] = ()
    random_cuts: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.at_ns):
            raise ValueError(f"cut times must be >= 0, got {self.at_ns}")
        if self.random_cuts < 0:
            raise ValueError(f"random_cuts must be >= 0, got {self.random_cuts}")

    @property
    def enabled(self) -> bool:
        return bool(self.at_ns) or self.random_cuts > 0

    def cut_times(self, window_start_ns: int, window_end_ns: int) -> List[int]:
        """All cut times for one run, ascending and de-duplicated.

        Scheduled times are taken as-is (they may fall outside the
        window); the ``random_cuts`` draws are uniform over
        ``[window_start_ns, window_end_ns)`` from a private seeded
        stream, so the same plan always cuts at the same instants.
        """
        times = [int(t) for t in self.at_ns]
        if self.random_cuts > 0:
            if window_end_ns <= window_start_ns:
                raise ValueError(
                    f"empty random-cut window [{window_start_ns}, {window_end_ns})"
                )
            rng = np.random.default_rng(np.random.SeedSequence(self.seed))
            times.extend(
                int(t)
                for t in rng.integers(
                    window_start_ns, window_end_ns, size=self.random_cuts
                )
            )
        return sorted(set(times))


@dataclass
class PowerCut:
    """Everything a recovery phase needs about one emulated power cut."""

    t_ns: int
    #: ``(block, page)`` frontier pages torn by in-flight programs.
    torn: List[Tuple[int, int]] = field(default_factory=list)
    #: Live simulator events that died with the rail.
    events_dropped: int = 0
    durable: Optional[NandDurableState] = None


class PowerLossEmulator:
    """Cuts power on a live :class:`~repro.host.HostSystem`.

    Stateless except for the cut log; one emulator can cut the same
    timeline repeatedly across sequential recovery phases.
    """

    def __init__(self) -> None:
        self.cuts: List[PowerCut] = []

    def cut_power(self, host) -> PowerCut:
        """Kill ``host`` at its current simulated instant.

        Tears the active frontiers, captures the durable media image and
        drops the pending event queue.  The host object is dead
        afterwards -- recovery builds a new one from ``cut.durable``.
        """
        ftl = host.ftl
        nand = ftl.nand
        cut = PowerCut(t_ns=host.sim.now)
        # Every open write stream -- the translation frontier too in
        # dftl mode -- exactly the set the crash sweep tears.
        for frontier in ftl.frontiers:
            page = nand.tear_frontier_page(frontier.block)
            if page is not None:
                cut.torn.append((frontier.block, page))
        cut.durable = nand.capture_durable_state()
        cut.events_dropped = host.sim.power_cut()
        if nand.tracer.enabled:
            nand.tracer.emit(
                "faults",
                "spo.cut",
                torn=len(cut.torn),
                events_dropped=cut.events_dropped,
            )
        self.cuts.append(cut)
        return cut

    def cut_recovery(self, nand, t_ns: int = 0, tear_checkpoint: bool = False) -> PowerCut:
        """Cut power *while a recovery is in progress* on ``nand``.

        The recovery scan itself is read-only, so a cut during it leaves
        the media exactly as the previous cut did -- there is no frontier
        program to tear.  The one mutation recovery may perform is the
        optional post-recovery checkpoint; when ``tear_checkpoint`` is
        set, the newest metadata record (that checkpoint, mid-program
        when the rail died) is torn so the next power-on must fall back
        to the previous generation or a full scan.  Returns the cut with
        the re-captured durable image; there is no live host/simulator to
        kill, so ``events_dropped`` is always 0.
        """
        cut = PowerCut(t_ns=t_ns)
        if tear_checkpoint:
            torn = nand.meta.tear_last()
            if torn is not None:
                # Record the tear in the cut log; meta records live off
                # the user geometry, so flag it with block -1.
                cut.torn.append((-1, torn.pages))
        cut.durable = nand.capture_durable_state()
        if nand.tracer.enabled:
            nand.tracer.emit(
                "faults",
                "spo.cut_recovery",
                torn=len(cut.torn),
                tear_checkpoint=tear_checkpoint,
            )
        self.cuts.append(cut)
        return cut
