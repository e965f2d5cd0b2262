"""The simulator event loop.

:class:`Simulator` owns the clock and the event heap.  Components schedule
callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the loop dispatches them
in deterministic ``(time, priority, sequence)`` order.

The loop never advances time past the event being dispatched, so a callback
always observes ``sim.now`` equal to its own firing time.

Hot-path layout (PERFORMANCE.md): the heap holds flat
``(time, priority, seq, event)`` tuples.  ``seq`` is unique per event, so
heap sifting is decided entirely by C-level int comparison -- the
:class:`~repro.sim.events.Event` object rides along and is never compared.
Scheduling is one call (:meth:`Simulator.schedule` validates, builds the
event and pushes; :meth:`Simulator.schedule_at` validates its absolute
time and goes through it), and ``step`` / ``run`` / ``run_until`` share
one loop that fires the event where it pops it.
"""

from __future__ import annotations

import heapq
import sys
from time import perf_counter_ns
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import PRIORITY_NORMAL, Event, EventPriority  # noqa: F401

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Heap entry: ``(time, priority, seq, event)``.
_HeapEntry = Tuple[int, int, int, Event]

#: "No horizon" / "no event limit": one int compare serves both cases.
_UNBOUNDED = sys.maxsize


class SimulationError(RuntimeError):
    """Raised for scheduling bugs (negative delays, time travel, etc.)."""


class Simulator:
    """Deterministic discrete-event simulator.

    A single instance is shared by every component of a scenario: the NAND
    device, the FTL's background-GC machinery, the host page cache flusher
    and the workload actors all schedule against the same clock.

    Typical use::

        sim = Simulator()
        sim.schedule(5 * SECOND, flusher.wake)
        sim.run_until(3600 * SECOND)
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._heap: List[_HeapEntry] = []
        self._seq: int = 0
        self._live: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._dead: bool = False
        #: Number of events dispatched so far (monitoring / tests).
        self.dispatched: int = 0
        #: Optional wall-clock profiler (see :meth:`set_profiler`).
        self._profiler = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in integer nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    @property
    def profiler(self):
        """The attached :class:`~repro.obs.profiler.LoopProfiler`, if any."""
        return self._profiler

    def set_profiler(self, profiler) -> None:
        """Attach (or with ``None`` detach) a wall-clock loop profiler.

        With a profiler attached every dispatched event is timed with
        ``perf_counter_ns`` and accounted under its event name (or the
        callback's qualified name); with none attached the dispatch loop
        pays only an ``is None`` check.
        """
        self._profiler = profiler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` ticks from now.

        Returns the :class:`Event`, which the caller may :meth:`~Event.cancel`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {name or callback}")
        if self._dead:
            raise SimulationError("simulator is dead after a power cut")
        time = self._now + delay
        seq = self._seq
        event = Event(time, priority, seq, callback, name, self._on_event_cancelled)
        self._seq = seq + 1
        self._live += 1
        _heappush(self._heap, (time, priority, seq, event))
        return event

    def schedule_at(
        self,
        time: int,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        return self.schedule(time - self._now, callback, priority=priority, name=name)

    def _on_event_cancelled(self) -> None:
        self._live -= 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _drain(self, until: Optional[int], max_events: Optional[int]) -> int:
        """The one dispatch loop behind :meth:`step`, :meth:`run` and
        :meth:`run_until`: fire live events stamped ``<= until`` (``None``:
        all of them) and, unless stopped or cut short by ``max_events``,
        leave the clock at ``until``.  Returns the number dispatched.
        """
        horizon = _UNBOUNDED if until is None else until
        limit = _UNBOUNDED if max_events is None else max_events
        self._stopped = False
        count = 0
        heap = self._heap
        while heap and not self._stopped:
            if count >= limit:
                return count
            head = heap[0]
            event = head[3]
            if event.cancelled:
                _heappop(heap)
                continue
            time = head[0]
            if time > horizon:
                break
            _heappop(heap)
            event._on_cancel = None  # fired: a late cancel() is a no-op
            self._live -= 1
            self._now = time
            self.dispatched += 1
            profiler = self._profiler
            if profiler is None:
                event.callback()
            else:
                label = event.name or getattr(
                    event.callback, "__qualname__", "anonymous"
                )
                start = perf_counter_ns()
                event.callback()
                profiler.record(label, perf_counter_ns() - start)
            count += 1
        if until is not None and not self._stopped:
            self._now = max(self._now, until)
        return count

    def step(self) -> bool:
        """Dispatch the single next pending event.

        Returns ``False`` when the heap is empty (nothing was dispatched).
        """
        return self._drain(None, 1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event heap drains (or ``max_events`` dispatched).

        Returns the number of events dispatched by this call.
        """
        return self._drain(None, max_events)

    def run_until(self, time: int, max_events: Optional[int] = None) -> int:
        """Run events with timestamps ``<= time``, then set the clock to it.

        Events scheduled beyond ``time`` stay pending; the clock is advanced
        to exactly ``time`` so a subsequent ``run_until`` continues cleanly.
        With ``max_events`` the call returns early after that many
        dispatches, leaving the clock at the last fired event so the caller
        can interleave wall-clock deadline checks and resume (the worker
        wall-clock budget in :mod:`repro.experiments.runner` relies on
        this).  Returns the number of events dispatched.
        """
        if self._dead:
            raise SimulationError("simulator is dead after a power cut")
        if time < self._now:
            raise SimulationError(f"run_until({time}) is in the past (now={self._now})")
        return self._drain(time, max_events)

    def stop(self) -> None:
        """Ask the running loop to stop after the current event."""
        self._stopped = True

    def resume_at(self, time: int) -> None:
        """Jump the idle clock forward to ``time`` (power-loss recovery).

        A host rebuilt around a recovered FTL continues the *same*
        timeline: its fresh simulator starts at the power-cut time plus
        the recovery-scan duration rather than zero.  Only legal before
        anything is scheduled -- moving the clock under pending events
        would violate the no-time-travel guarantee.
        """
        if self._heap:
            raise SimulationError("resume_at with events pending")
        if time < self._now:
            raise SimulationError(
                f"resume_at({time}) is in the past (now={self._now})"
            )
        self._now = time

    def power_cut(self) -> int:
        """Drop every pending event and stop the loop (sudden power-off).

        In-flight work dies with the power rail: nothing queued survives
        into recovery, which starts from durable state only.  Returns
        the number of live events discarded.  The simulator is dead
        afterwards -- further scheduling or running raises
        :class:`SimulationError`; recovery builds a fresh one
        (:meth:`resume_at` continues the timeline).
        """
        dropped = self._live
        for entry in self._heap:
            entry[3]._on_cancel = None
        self._heap.clear()
        self._live = 0
        self._stopped = True
        self._dead = True
        return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if idle.

        Cancelled heads are popped lazily, so the amortized cost is
        O(log n) per cancelled event rather than a full heap sort per
        call.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            _heappop(heap)
        return heap[0][0] if heap else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self._now} pending={self.pending()}>"
