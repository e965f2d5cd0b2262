"""Event priorities: the tie-break of the deterministic event order.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
is assigned by the :class:`~repro.sim.engine.Simulator` at scheduling time,
so two events scheduled for the same instant at the same priority always
fire in scheduling order.  This determinism matters: GC-policy decisions
depend on whether a device-idle notification is observed before or after a
flusher tick at the same timestamp.

An event is the engine's heap entry itself, a flat
``(time, priority, seq, callback, name)`` tuple (PERFORMANCE.md), so
ordering is decided by C-level tuple comparison.  The
:class:`EventPriority` enum remains the documented vocabulary, but every
hot scheduling site uses the hoisted module-level int constants below --
``IntEnum`` member access goes through the enum metaclass and shows up in
event-loop profiles.
"""

from __future__ import annotations

import enum


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
