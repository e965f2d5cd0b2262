"""Schedulable events with deterministic total ordering.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
is assigned by the :class:`~repro.sim.engine.Simulator` at scheduling time,
so two events scheduled for the same instant at the same priority always
fire in scheduling order.  This determinism matters: GC-policy decisions
depend on whether a device-idle notification is observed before or after a
flusher tick at the same timestamp.

The event core is structure-of-arrays flavoured (PERFORMANCE.md): the
engine's heap holds plain ``(time, priority, seq, event)`` int tuples so
ordering is decided by C-level tuple comparison, and :class:`Event` is a
``__slots__`` record whose sort key is derived only when someone asks
for it (the heap never does).  The
:class:`EventPriority` enum remains the documented vocabulary, but every
hot scheduling site uses the hoisted module-level int constants below --
``IntEnum`` member access goes through the enum metaclass and shows up in
event-loop profiles.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Tuple


class EventPriority(enum.IntEnum):
    """Tie-break priority for events scheduled at the same instant.

    Lower values fire first.  ``DEVICE`` completions are delivered before
    ``CONTROL`` ticks (a policy tick at time *t* should see all I/O that
    completed at *t*), and ``LOW`` runs last (bookkeeping, metric samples).
    """

    DEVICE = 0
    NORMAL = 1
    CONTROL = 2
    LOW = 3


#: Hoisted int values of :class:`EventPriority` for hot scheduling sites.
#: Identical ordering semantics; plain module-global loads instead of enum
#: metaclass ``__getattr__`` per schedule call.
PRIORITY_DEVICE: int = int(EventPriority.DEVICE)
PRIORITY_NORMAL: int = int(EventPriority.NORMAL)
PRIORITY_CONTROL: int = int(EventPriority.CONTROL)
PRIORITY_LOW: int = int(EventPriority.LOW)


class Event:
    """A single scheduled callback (slotted, ints-only ordering state).

    Attributes:
        time: absolute simulated time (integer nanoseconds) at which the
            event fires.
        priority: tie-break class, see :class:`EventPriority` (stored as
            given; the hot scheduling sites all pass plain ints).
        seq: scheduling sequence number; assigned by the simulator.
        key: the ``(time, priority, seq)`` total-ordering key (derived).
        callback: zero-argument callable invoked when the event fires.
        name: optional label used in error messages and traces.
        cancelled: set via :meth:`cancel`; cancelled events are skipped
            (lazily removed from the heap).
    """

    __slots__ = ("time", "priority", "seq", "callback", "name",
                 "cancelled", "_on_cancel")

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        name: Optional[str] = None,
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False
        #: Passed by the scheduling simulator so cancellation can keep its
        #: live-event counter exact without scanning the heap.  Cleared
        #: when the event fires or is cancelled, so a fired event held by
        #: a component never keeps the simulator hook reachable.
        self._on_cancel = on_cancel

    @property
    def key(self) -> Tuple[int, int, int]:
        """The total ordering key; the engine's heap entries carry the
        same three ints inline, so nothing on the hot path builds this."""
        return (self.time, int(self.priority), self.seq)

    def sort_key(self) -> Tuple[int, int, int]:
        """The total ordering key used by the event heap."""
        return self.key

    def __lt__(self, other: "Event") -> bool:
        return self.key < other.key

    def cancel(self) -> None:
        """Mark the event so the engine discards it instead of firing it.

        Cancellation is O(1); the heap entry is dropped when it surfaces.
        Idempotent, and a no-op after the event has already fired (the
        engine detaches the cancellation hook at dispatch, so a late
        ``cancel()`` cannot corrupt the live-event count).
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()
            self._on_cancel = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or getattr(self.callback, "__qualname__", "callback")
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} prio={self.priority} {label}{state}>"
