"""Wall-clock spans around each layer's public functions, taken from outside.

``LayerTracer.install()`` replaces class attributes (and a few module
functions) with timing wrappers *before* the host is built, so every
bound method the stack captures during construction is already the
wrapped one; ``uninstall()`` puts the originals back.  Nothing under
``src/`` knows the tracer exists.

A span is aggregated as soon as it closes, keyed by ``(span, parent
span)``: per-call records of the ~10^7 calls in one window would not fit
in memory.  What is kept is exact -- calls, total time and *self* time
(total minus the time covered by child spans) per edge of the call tree.

One span per dispatched event comes from the simulator's own profiler
seam (``Simulator.set_profiler``): ``record(label, wall_ns)`` fires after
each event, and the event's self time is its wall time minus the spans
opened directly under it.  ``Simulator.run_until`` is the root span, so
its self time is the event loop itself.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from repro.analytic import warmstart
from repro.core.buffered_predictor import BufferedWritePredictor
from repro.core.direct_predictor import DirectWritePredictor
from repro.core.manager import JitGcManager
from repro.core.policies import JitGcPolicy
from repro.experiments import crashsweep
from repro.faults.injector import FaultInjector
from repro.ftl import recovery, victim
from repro.ftl.ftl import PageMappedFtl
from repro.ftl.mapping import CachedPageMap, PageMap
from repro.ftl.metastore import MetaLog
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector
from repro.nand.array import NandArray
from repro.nand.reliability import ReadDisturbTracker, ReliabilityModel
from repro.oskernel.cache import PageCache
from repro.oskernel.flusher import FlusherThread
from repro.oskernel.iopath import IoDispatcher
from repro.sim.engine import Simulator
from repro.ssd import config as ssd_config
from repro.ssd.device import SsdDevice

ROOT = "Simulator.run_until"

#: (layer, owner, attribute names).  The owner is the class that
#: *defines* the attribute (subclasses inherit the wrapper) or a module
#: holding a function.  JIT-GC is the policy of all four workloads, so
#: the policy hooks are wrapped on ``JitGcPolicy``; its three listener
#: callbacks and ``set_sip_list`` are not public names, but they are the
#: entry points through which ``core`` and the SIP index are called.
TARGETS: List[Tuple[str, object, Tuple[str, ...]]] = [
    ("oskernel.iopath", IoDispatcher, ("write", "read", "fsync", "trim")),
    (
        "oskernel.cache",
        PageCache,
        (
            "write_page",
            "read_page",
            "insert_clean",
            "invalidate",
            "expired_dirty",
            "begin_writeback",
            "complete_writeback",
        ),
    ),
    ("oskernel.flusher", FlusherThread, ("flush_once",)),
    ("core", BufferedWritePredictor, ("predict",)),
    ("core", DirectWritePredictor, ("record_direct_bytes", "predict")),
    ("core", JitGcManager, ("decide",)),
    (
        "core",
        JitGcPolicy,
        (
            "reclaim_demand_pages",
            "on_block_collected",
            "_tick",
            "_on_completion",
            "_on_writeback",
        ),
    ),
    ("ssd", SsdDevice, ("submit",)),
    ("ftl.host_write", PageMappedFtl, ("host_write_page", "host_write_extent")),
    ("ftl.host_read", PageMappedFtl, ("host_read_page",)),
    ("ftl.trim", PageMappedFtl, ("trim",)),
    ("ftl.gc", PageMappedFtl, ("collect_one_block",)),
    ("ftl.scrub", PageMappedFtl, ("maybe_scrub",)),
    ("ftl.metastore", PageMappedFtl, ("write_checkpoint",)),
    ("ftl.metastore", MetaLog, ("append",)),
    ("ftl.victim", PageMappedFtl, ("set_sip_list",)),
    ("ftl.victim", victim.GreedySelector, ("select",)),
    ("ftl.victim", victim.SipFilteredSelector, ("select",)),
    ("ftl.mapping", PageMap, ("lookup", "remap", "remap_extent", "migrate_pages")),
    ("ftl.mapping", CachedPageMap, ("cmt_touch",)),
    (
        "nand",
        NandArray,
        (
            "program_page",
            "program_pages_batch",
            "read_page",
            "read_pages_batch",
            "erase_block",
        ),
    ),
    ("faults.capture", NandArray, ("capture_durable_state",)),
    ("nand.reliability", ReliabilityModel, ("read_outcome",)),
    ("nand.reliability", ReadDisturbTracker, ("record_read", "record_reads")),
    (
        "faults",
        FaultInjector,
        ("program_fails", "erase_fails", "read_uncorrectable", "program_batch_clear"),
    ),
    ("metrics", MetricsCollector, ("record_op",)),
    ("ftl.recovery", recovery, ("recover_ftl",)),
    ("experiments.verify", crashsweep, ("verify_crash_point",)),
    ("analytic", warmstart, ("synthesize_steady_state",)),
    ("experiments.prefill", HostSystem, ("prefill",)),
    ("sim", Simulator, ("run_until",)),
]

#: Modules that imported a wrapped function by name keep their own
#: reference to it; they are re-pointed at the same wrapper.
ALIASES: List[Tuple[object, str, object]] = [
    (crashsweep, "recover_ftl", recovery),
    (ssd_config, "recover_ftl", recovery),
]

#: Return values worth keeping, projected so the big objects can die.
KEEP: Dict[str, Callable] = {
    "recover_ftl": lambda r: (r[1].full_scan, r[1].pages_scanned, r[1].torn_pages),
    "synthesize_steady_state": lambda r: r[1].waf,
}


def event_layer(label: str) -> str:
    """The layer whose code an event with this label runs first."""
    if label.startswith("ssd."):
        return "ssd"
    if label.startswith("iopath."):
        return "oskernel.iopath"
    if label in ("flusher", "bg-flush"):
        return "oskernel.flusher"
    if label == "timeline":
        return "metrics"
    if label.endswith((".start", ".resume", ".timeout")):
        return "workloads"  # a workload actor's generator step
    return "unattributed"


class LayerTracer:
    """Aggregating span tracer; see the module docstring."""

    def __init__(self) -> None:
        self._names: List[str] = ["<window>"]  # index 0: not inside any span
        self._layers: List[str] = ["unattributed"]
        #: ``_rows[span][parent] = [calls, total_ns, self_ns]``.
        self._rows: List[Dict[int, List[int]]] = [{}]
        #: ``_events[label] = [count, total_ns, self_ns]``.
        self._events: Dict[str, List[int]] = {}
        #: ``[current span, ns covered by the current span's children]``.
        self._state = [0, 0]
        #: ``_state[1]`` when the previous event of this root span ended.
        self._event_mark = 0
        self.kept: Dict[str, list] = {name: [] for name in KEEP}
        self.dirty_pages_peak = 0
        self._patched: List[Tuple[object, str, object]] = []
        self._host = None
        self._dirty_listener = None
        self.window: Optional[dict] = None

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    @classmethod
    def install(cls) -> "LayerTracer":
        tracer = cls()
        wrapped: Dict[Tuple[int, str], Callable] = {}
        for layer, owner, attrs in TARGETS:
            for attr in attrs:
                original = vars(owner)[attr]  # KeyError: the seam moved
                is_class = isinstance(owner, type)
                name = f"{owner.__name__}.{attr}" if is_class else attr
                wrapper = tracer._wrap(original, name, layer)
                wrapped[(id(owner), attr)] = wrapper
                tracer._patch(owner, attr, wrapper)
        for module, attr, source in ALIASES:
            tracer._patch(module, attr, wrapped[(id(source), attr)])
        return tracer

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` of everything still replaced."""
        return list(self._patched)

    def _wrap(self, fn, name: str, layer: str):
        index = len(self._names)
        self._names.append(name)
        self._layers.append(layer)
        mine: Dict[int, List[int]] = {}
        self._rows.append(mine)
        state = self._state
        now = perf_counter_ns
        keep = KEEP.get(name)
        kept = self.kept.get(name)
        is_root = name == ROOT
        tracer = self

        def span(*args, **kwargs):
            parent = state[0]
            saved = state[1]
            state[0] = index
            state[1] = 0
            if is_root:
                tracer._event_mark = 0
            start = now()
            try:
                result = fn(*args, **kwargs)
                if keep is not None:
                    kept.append(keep(result))
                return result
            finally:
                elapsed = now() - start
                row = mine.get(parent)
                if row is None:
                    row = mine[parent] = [0, 0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - state[1]
                state[0] = parent
                state[1] = saved + elapsed

        return functools.wraps(fn)(span)

    # ------------------------------------------------------------------
    # The simulator's profiler seam: one call after each event
    # ------------------------------------------------------------------
    def record(self, label: str, wall_ns: int) -> None:
        state = self._state
        children = state[1] - self._event_mark
        row = self._events.get(label)
        if row is None:
            row = self._events[label] = [0, 0, 0]
        row[0] += 1
        row[1] += wall_ns
        row[2] += wall_ns - children
        # The whole event is a child of the root span, not only its spans.
        state[1] += wall_ns - children
        self._event_mark = state[1]

    # ------------------------------------------------------------------
    # Window control
    # ------------------------------------------------------------------
    def total_s(self, name: str) -> float:
        """Total time inside span ``name`` since the last reset."""
        index = self._names.index(name)
        return sum(row[1] for row in self._rows[index].values()) / 1e9

    def begin_window(self, host) -> None:
        """Forget the set-up's spans and start timing events on ``host``."""
        for rows in self._rows:
            rows.clear()
        self._events.clear()
        for values in self.kept.values():
            values.clear()
        self._host = host
        cache = host.cache
        self.dirty_pages_peak = cache.dirty_pages

        def on_dirty(_added, _removed) -> None:
            dirty = cache.dirty_pages
            if dirty > self.dirty_pages_peak:
                self.dirty_pages_peak = dirty

        self._dirty_listener = on_dirty
        cache.dirty_listeners.append(on_dirty)
        host.sim.set_profiler(self)

    def end_window(self) -> None:
        """Stop timing and freeze what the window recorded."""
        host = self._host
        host.sim.set_profiler(None)
        host.cache.dirty_listeners.remove(self._dirty_listener)
        self._host = self._dirty_listener = None
        names = self._names
        self.window = {
            "spans": [
                {
                    "name": names[index],
                    "layer": self._layers[index],
                    "parent": names[parent],
                    "calls": row[0],
                    "total_ns": row[1],
                    "self_ns": row[2],
                }
                for index, rows in enumerate(self._rows)
                for parent, row in rows.items()
            ],
            "events": [
                {
                    "label": label,
                    "layer": event_layer(label),
                    "count": row[0],
                    "total_ns": row[1],
                    "self_ns": row[2],
                }
                for label, row in self._events.items()
            ],
            "kept": {name: list(values) for name, values in self.kept.items()},
        }

    # ------------------------------------------------------------------
    # Reading the frozen window
    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer: its spans plus the events it owns."""
        out: Dict[str, float] = {}
        for span in self.window["spans"]:
            out[span["layer"]] = out.get(span["layer"], 0.0) + span["self_ns"] / 1e9
        for event in self.window["events"]:
            out[event["layer"]] = out.get(event["layer"], 0.0) + event["self_ns"] / 1e9
        return out

    def calls(self, *names: str) -> int:
        return sum(s["calls"] for s in self.window["spans"] if s["name"] in names)

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(self.window, out, indent=1)
