"""Workload-generator infrastructure.

The paper's six benchmarks are modelled as *closed-loop* generators:
actors issue an operation, wait for its completion, think, and repeat --
so application throughput (IOPS) reflects storage speed, exactly as when
running the real benchmarks on a real SSD.  Between bursts, actors pause,
producing the idle windows background GC lives on.

Each workload targets the buffered/direct write mix of the paper's
Table 1 through its own structure (journal commits, redo logs, O_DIRECT
threads), not by coin-flipping individual writes -- the mix *emerges*
from the modelled application behaviour and is verified by the Table 1
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterator, List, Optional

import numpy as np

from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector
from repro.sim.process import Process, Timeout, WaitFor
from repro.sim.simtime import SECOND


@dataclass(frozen=True)
class Region:
    """A contiguous LPN range owned by one workload structure."""

    start: int
    pages: int

    def __post_init__(self) -> None:
        if self.pages <= 0 or self.start < 0:
            raise ValueError(f"invalid region start={self.start} pages={self.pages}")

    @property
    def end(self) -> int:
        """One past the last LPN."""
        return self.start + self.pages

    def sub(self, offset: int, pages: int) -> "Region":
        """A sub-region; bounds-checked."""
        if offset < 0 or offset + pages > self.pages:
            raise ValueError(
                f"sub-region [{offset}, {offset + pages}) outside 0..{self.pages}"
            )
        return Region(self.start + offset, pages)

    def split(self, parts: int) -> List["Region"]:
        """Split into ``parts`` near-equal sub-regions."""
        if parts <= 0 or parts > self.pages:
            raise ValueError(f"cannot split {self.pages} pages into {parts} parts")
        base = self.pages // parts
        out = []
        offset = 0
        for index in range(parts):
            size = base + (1 if index < self.pages % parts else 0)
            out.append(self.sub(offset, size))
            offset += size
        return out


class ZipfGenerator:
    """Bounded Zipfian sampler over ``[0, n)`` (YCSB-style hot spots).

    Item 0 is the hottest.  Uses batched inverse-CDF sampling so the
    per-sample cost is O(log n) with O(n) one-time setup.
    """

    def __init__(
        self,
        n: int,
        theta: float,
        rng: np.random.Generator,
        _shared_cdf: Optional[np.ndarray] = None,
    ) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if theta < 0:
            raise ValueError(f"theta must be >= 0, got {theta}")
        self.n = n
        self.theta = theta
        self._rng = rng
        if _shared_cdf is not None:
            self._cdf = _shared_cdf
        else:
            weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
            self._cdf = np.cumsum(weights)
            self._cdf /= self._cdf[-1]
        #: The current batch as Python ints (one ``tolist`` per 4096
        #: samples instead of boxing a NumPy scalar per sample).
        self._batch: List[int] = []
        self._cursor = 0

    def with_rng(self, rng: np.random.Generator) -> "ZipfGenerator":
        """A sampler over the same distribution driven by another rng
        (used to give each workload actor an independent stream while
        sharing the O(n) CDF table)."""
        return ZipfGenerator(self.n, self.theta, rng, _shared_cdf=self._cdf)

    def sample(self) -> int:
        cursor = self._cursor
        if cursor >= len(self._batch):
            uniforms = self._rng.random(4096)
            self._batch = np.searchsorted(self._cdf, uniforms).tolist()
            cursor = 0
        self._cursor = cursor + 1
        return self._batch[cursor]


class Workload:
    """Base class for closed-loop benchmark generators.

    Subclasses implement :meth:`build_actors`, returning one generator
    per concurrent actor; actors use the ``op_write`` / ``op_read`` /
    ``think`` helpers (via ``yield from``) so every operation is counted
    in the metrics collector.

    Args:
        host: the assembled host system.
        metrics: collector that counts operations and latencies.
        region: LPN range this workload may touch (typically the working
            set: half the user capacity, per the paper's setup).
        think_ns: mean think time between operations inside a burst.
        burst_ops: operations per burst before an idle pause.
        idle_ns: mean idle pause between bursts (BGC's opportunity).
        phase_on_ns / phase_off_ns: when set, a global duty-cycle gate
            drives the whole benchmark: actors issue operations freely
            during ON phases and all park during OFF phases.  Real
            benchmarks alternate between I/O-intensive stretches and
            compute/quiet stretches in exactly this way; the OFF phases
            are the guaranteed global idle that background GC lives on,
            and the number of operations completed per ON phase is what
            couples IOPS to device latency (including any GC stall).
            This is the pacing mode used by all six paper benchmarks.
    """

    #: Subclasses set a human-readable benchmark name.
    name = "base"
    #: The paper's Table 1 buffered share, used as the reference value.
    paper_buffered_fraction: float = 0.5

    def __init__(
        self,
        host: HostSystem,
        metrics: MetricsCollector,
        region: Region,
        think_ns: int = 30_000,
        burst_ops: int = 2048,
        idle_ns: int = 8 * SECOND,
        phase_on_ns: Optional[int] = None,
        phase_off_ns: Optional[int] = None,
    ) -> None:
        self.host = host
        self.sim = host.sim
        # Fixed per host.  Methods are still looked up on the dispatcher
        # per call: a TraceRecorder patches them on the instance, and may
        # do so after the workload was built.
        self._dispatcher = host.dispatcher
        self._device_queue = host.device.queue
        self.metrics = metrics
        self.region = region
        self.think_ns = think_ns
        self.burst_ops = burst_ops
        self.idle_ns = idle_ns
        if (phase_on_ns is None) != (phase_off_ns is None):
            raise ValueError("phase_on_ns and phase_off_ns must be set together")
        self.phase_on_ns = phase_on_ns
        self.phase_off_ns = phase_off_ns
        self._gate_open = True
        self._gate_waiters: List[WaitFor] = []
        self.streams = host.streams.fork(f"workload:{self.name}")
        self.rng = self.streams.numpy("ops")
        self.pyrng = self.streams.python("ops")
        self._processes: List[Process] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn all actors (idempotent-guarded)."""
        if self._processes:
            raise RuntimeError(f"workload {self.name} already started")
        for index, generator in enumerate(self.build_actors()):
            process = Process(self.sim, generator, name=f"{self.name}[{index}]")
            process.start(delay=index * (self.think_ns // 2 + 1))
            self._processes.append(process)
        if self.phase_on_ns is not None:
            controller = Process(
                self.sim, self._phase_controller(), name=f"{self.name}.phases"
            )
            controller.start()
            self._processes.append(controller)

    def stop(self) -> None:
        """Kill all actors (end of measurement)."""
        for process in self._processes:
            process.kill()

    def build_actors(self) -> List[Generator]:
        """Return one generator per concurrent actor."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Actor helpers (use with ``yield from``)
    # ------------------------------------------------------------------
    def op_write(self, lpn: int, pages: int, direct: bool) -> Iterator:
        """One application write operation, counted on completion."""
        sim = self.sim
        start = sim.now
        depth = len(self._device_queue)
        waiter = WaitFor()
        self._dispatcher.write(lpn, pages, direct, waiter.wake)
        yield waiter
        self.metrics.record_op(sim.now - start, "write", start, depth)

    def op_fsync(self, lpn: int, pages: int) -> Iterator:
        """fsync a range: wait until its dirty pages hit the device."""
        sim = self.sim
        start = sim.now
        depth = len(self._device_queue)
        waiter = WaitFor()
        self._dispatcher.fsync(lpn, pages, waiter.wake)
        yield waiter
        self.metrics.record_op(sim.now - start, "fsync", start, depth)

    def op_read(self, lpn: int, pages: int) -> Iterator:
        """One application read operation, counted on completion."""
        sim = self.sim
        start = sim.now
        depth = len(self._device_queue)
        waiter = WaitFor()
        self._dispatcher.read(lpn, pages, waiter.wake)
        yield waiter
        self.metrics.record_op(sim.now - start, "read", start, depth)

    def op_trim(self, lpn: int, pages: int) -> Iterator:
        """One discard (TRIM) operation, counted on completion.

        Completion means the device acknowledged the discard -- with
        unmap journaling on, the tombstones are durable by then.
        """
        sim = self.sim
        start = sim.now
        depth = len(self._device_queue)
        waiter = WaitFor()
        self._dispatcher.trim(lpn, pages, waiter.wake)
        yield waiter
        self.metrics.record_op(sim.now - start, "trim", start, depth)

    def actor_rng(self, index: int) -> np.random.Generator:
        """Dedicated random stream for actor ``index``.

        Per-actor streams make each actor's randomness a function of its
        own progress only -- never of how the scheduler interleaved the
        actors -- so two runs differing only in GC policy replay
        *identical* workloads (same op choices, same pauses).  Sharing
        one stream would let a policy-induced reordering shuffle the
        heavy-tailed idle draws between actors, adding tens of percent
        of noise to policy comparisons.
        """
        return self.streams.numpy(f"actor-{index}")

    def _phase_controller(self) -> Generator:
        """Toggles the global gate: ON for phase_on_ns, OFF for
        phase_off_ns, waking parked actors at each reopening."""
        while True:
            yield Timeout(self.phase_on_ns)
            self._gate_open = False
            yield Timeout(self.phase_off_ns)
            self._gate_open = True
            waiters, self._gate_waiters = self._gate_waiters, []
            for waiter in waiters:
                waiter.wake()

    def op_gate(self) -> Iterator:
        """Park until the load gate is open (no-op when already open or
        when duty-cycle pacing is disabled)."""
        if self._gate_open:
            return
        waiter = WaitFor()
        self._gate_waiters.append(waiter)
        yield waiter

    def think(self, rng: Optional[np.random.Generator] = None) -> Iterator:
        """Exponential think time inside a burst (truncated at 4x mean).

        ``_exponential(self.think_ns, rng)`` drawn in place: this runs
        once per operation.
        """
        mean = self.think_ns
        if mean > 0:
            delay = min(int((rng or self.rng).exponential(mean)), 4 * mean)
            if delay > 0:
                yield Timeout(delay)

    def burst_pause(self, rng: Optional[np.random.Generator] = None) -> Iterator:
        """Pause after a burst: a truncated-exponential idle."""
        delay = self._exponential(self.idle_ns, rng)
        if delay > 0:
            yield Timeout(delay)

    def _exponential(self, mean_ns: int, rng: Optional[np.random.Generator] = None) -> int:
        if mean_ns <= 0:
            return 0
        draw = int((rng or self.rng).exponential(mean_ns))
        # Truncate the tail: a single 20x-mean pause would dominate a
        # whole measurement window.
        return min(draw, 4 * mean_ns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Workload {self.name} actors={len(self._processes)}>"
