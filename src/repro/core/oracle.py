"""The ideal BGC policy of the paper's Sec 2, as an executable oracle.

The measurement study concludes: *"the ideal BGC invocation policy is
one that can dynamically change Cresv so that only an exact amount of
future writes can be reserved in advance"* -- and JIT-GC approximates it
with predictions.  :class:`OracleGcPolicy` realises the ideal itself: it
is told the future (the exact per-interval device write volumes of the
run, captured beforehand) and reserves exactly that, making it the upper
bound any predictor-based policy can approach.

:func:`repro.experiments.oracle.run_oracle_comparison` runs a scenario
once to harvest the per-interval write volumes
(:class:`FutureWriteRecorder`), then replays the identical scenario
under ``OracleGcPolicy(future)``.  Because workload replay is deterministic
(per-actor random streams), the captured future is exact up to the
second-order effect of GC timing on completion timing.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.policies import GcPolicy
from repro.sim.events import PRIORITY_CONTROL
from repro.ssd.device import SsdDevice
from repro.ssd.request import IoRequest


class FutureWriteLog:
    """Per-interval device write volumes of one recorded run."""

    def __init__(self, interval_ns: int, volumes_bytes: List[int]) -> None:
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        self.interval_ns = interval_ns
        self.volumes_bytes = list(volumes_bytes)

    def demand_bytes(self, now_ns: int, horizon_intervals: int) -> int:
        """Exact write volume of the next ``horizon_intervals`` intervals."""
        start = now_ns // self.interval_ns
        window = self.volumes_bytes[start : start + horizon_intervals]
        return sum(window)

    def __len__(self) -> int:
        return len(self.volumes_bytes)


class FutureWriteRecorder:
    """Tallies device write volumes per interval (the capture side)."""

    def __init__(self, device: SsdDevice, interval_ns: int) -> None:
        self.interval_ns = interval_ns
        self.page_size = device.config.geometry.page_size
        self._volumes: Dict[int, int] = {}
        device.completion_listeners.append(self._on_completion)
        self._device = device

    def _on_completion(self, request: IoRequest) -> None:
        if not request.is_write:
            return
        index = self._device.sim.now // self.interval_ns
        self._volumes[index] = (
            self._volumes.get(index, 0) + request.page_count * self.page_size
        )

    def log(self) -> FutureWriteLog:
        if not self._volumes:
            return FutureWriteLog(self.interval_ns, [])
        length = max(self._volumes) + 1
        return FutureWriteLog(
            self.interval_ns,
            [self._volumes.get(index, 0) for index in range(length)],
        )


class OracleGcPolicy(GcPolicy):
    """Reserves exactly the known future demand (Sec 2's ideal policy).

    Args:
        future: a :class:`FutureWriteLog` from a prior identical run.
        horizon_intervals: how far ahead the reserve must cover (matches
            JIT-GC's ``Nwb`` so comparisons are apples-to-apples).
    """

    name = "ORACLE"

    def __init__(self, future: FutureWriteLog, horizon_intervals: int = 6) -> None:
        if horizon_intervals <= 0:
            raise ValueError(
                f"horizon_intervals must be positive, got {horizon_intervals}"
            )
        self.future = future
        self.horizon_intervals = horizon_intervals

    def attach(self, sim, device, cache, flusher) -> None:
        super().attach(sim, device, cache, flusher)
        sim.schedule(
            self.future.interval_ns, self._tick, priority=PRIORITY_CONTROL
        )

    def _tick(self) -> None:
        self.device.kick_bgc()
        self.sim.schedule(
            self.future.interval_ns, self._tick, priority=PRIORITY_CONTROL
        )

    def reclaim_demand_pages(self, device: SsdDevice) -> int:
        page = device.config.geometry.page_size
        demand = self.future.demand_bytes(self.sim.now, self.horizon_intervals)
        demand_pages = -(-demand // page)
        space = device.ftl.space
        target = space.clamp_reserved_pages(demand_pages, device.ftl.used_pages())
        return max(0, target - device.ftl.free_pages())

