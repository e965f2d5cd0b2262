"""Discrete-event simulation kernel.

This package provides the timing substrate on which every other subsystem
(NAND flash, FTL, SSD device, host page cache, workload generators) runs.
It is a small but complete event-driven kernel:

* :mod:`repro.sim.simtime` -- integer-nanosecond time base and unit helpers.
* :mod:`repro.sim.events` -- event priorities (the same-instant tie-break).
* :mod:`repro.sim.engine` -- the :class:`Simulator` event loop.
* :mod:`repro.sim.process` -- generator-based sequential processes
  (used by closed-loop workload actors).
* :mod:`repro.sim.randomness` -- per-component seeded random streams.

All simulated time is kept as integer nanoseconds to make runs exactly
reproducible (no float drift between platforms).
"""

from repro.sim.simtime import (
    NANOSECOND,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    format_time,
    ns_from_seconds,
    seconds_from_ns,
)
from repro.sim.events import (
    PRIORITY_CONTROL,
    PRIORITY_DEVICE,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    EventPriority,
)
from repro.sim.engine import Simulator, SimulationError
from repro.sim.process import Process, Timeout, WaitFor, ProcessExit
from repro.sim.randomness import RandomStreams

__all__ = [
    "NANOSECOND",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "format_time",
    "ns_from_seconds",
    "seconds_from_ns",
    "EventPriority",
    "PRIORITY_DEVICE",
    "PRIORITY_NORMAL",
    "PRIORITY_CONTROL",
    "PRIORITY_LOW",
    "Simulator",
    "SimulationError",
    "Process",
    "Timeout",
    "WaitFor",
    "ProcessExit",
    "RandomStreams",
]
