"""One workload, one process: set up, time the window, check the outputs.

``run.py`` starts this module once per workload so that peak RSS is the
workload's own and allocator state never leaks between cells.  The last
line of standard output is one JSON object (``run_cell``'s result).

Timing rules: ``setup_s`` is the wall time inside
``build_preconditioned_host``; the window opens after it with
``collector.begin()`` and closes with ``collector.end()``.  The window
runs in about fifty equal slices with a fixed kernel timed between them,
and every host time is rescaled by how fast the host was while it was
taken (``HostSpeedProbe``); elapsed times are kept as ``*_raw_s``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.experiments import crashsweep
from repro.experiments.runner import build_preconditioned_host
from repro.ftl.ftl import DeviceReadOnlyError, FtlError
from repro.metrics.hdr import nearest_rank
from repro.sim.simtime import SECOND

from benchmarks.e2e.layers import per_layer_metrics
from benchmarks.e2e.trace import LayerTracer
from benchmarks.e2e.workloads import (
    CRASH_NESTED_EVERY,
    CRASH_STRIDE_EVENTS,
    WORKLOADS,
    Workload,
)

#: The probe's kernel time on the reference box (2 cores, Python 3.11)
#: when nothing else runs; host times are reported at this speed.
REFERENCE_KERNEL_MS = 14.0
NOISY_KERNEL_DRIFT = 0.10


class HostSpeedProbe:
    """Reads the host's current speed from a fixed kernel.

    The sandbox this series was sized on switches, seconds at a time,
    between host speeds up to 1.5x apart, which spread the elapsed time
    of identical windows by 18-25 % (quartiles over the median, ten
    runs).  The kernel does what the simulator's hot loop does -- heap
    pushes and pops, updates scattered over a large dict -- so it slows
    down by the same factor; a pure-arithmetic loop does not.  Dividing
    each slice's elapsed time by the kernel time around it brings the
    spread to 3 %.
    """

    TABLE_ENTRIES = 200_000
    STEPS = 10_000

    def __init__(self) -> None:
        self._table = {i: i for i in range(self.TABLE_ENTRIES)}

    def kernel_ms(self) -> float:
        table, heap, entries = self._table, [], self.TABLE_ENTRIES
        push, pop = heapq.heappush, heapq.heappop
        x = 12345
        start = time.perf_counter()
        for step in range(self.STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = x % entries
            table[key] += 1
            push(heap, (x, step, key))
            if step & 1:
                pop(heap)
        return (time.perf_counter() - start) * 1e3


def smoothed(kernels_ms: List[float], reach: int = 2) -> List[float]:
    """Running median over ``reach`` neighbours each side.

    Host speed holds for seconds, several slices long; a lone kernel
    time several times its neighbours (a page fault storm on the
    310 MiB cell) is not a speed, and would shrink two slices to nothing.
    """
    return [
        statistics.median(kernels_ms[max(0, i - reach) : i + reach + 1])
        for i in range(len(kernels_ms))
    ]


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile, by the rule the repo's HDR histogram uses."""
    return sorted(values)[nearest_rank(pct, len(values)) - 1]


def snapshot(host) -> Dict[str, int]:
    """Monotonic counters of every layer, for window deltas."""
    stats = host.ftl.stats
    traffic = host.dispatcher.stats
    nand = host.ftl.nand
    injector = nand.fault_injector
    snap = {f"ftl.{f.name}": getattr(stats, f.name) for f in dataclasses.fields(stats)}
    snap.update(
        {f"io.{f.name}": getattr(traffic, f.name) for f in dataclasses.fields(traffic)}
    )
    snap.update(
        {
            "sim.events": host.sim.dispatched,
            # Every op that entered the dispatcher: counted on its path,
            # or still parked behind dirty throttling.
            "io.issued": traffic.buffered_ops
            + traffic.direct_ops
            + traffic.read_ops
            + traffic.fsync_ops
            + traffic.trim_ops
            + host.dispatcher.blocked_writers,
            "cache.read_hits": host.cache.read_hits,
            "cache.read_misses": host.cache.read_misses,
            "flusher.wakeups": host.flusher.wakeups,
            "flusher.pages_flushed": host.flusher.pages_flushed,
            "core.decisions": host.policy.manager.decisions,
            "ssd.busy_ns": host.device.busy_ns,
            "ssd.requests": host.device.requests_completed,
            "nand.reads": nand.page_reads,
            "nand.programs": nand.page_programs,
            "nand.erases": nand.block_erases,
            "faults.injected": injector.total_faults() if injector else 0,
        }
    )
    return snap


class Window:
    """Bookkeeping around one set-up and one timed window."""

    def __init__(self, tracer: Optional[LayerTracer] = None) -> None:
        self.tracer = tracer
        self.probe = HostSpeedProbe()
        self.setup_spans: Dict[str, float] = {}
        #: ``(elapsed s, cpu s, work units)`` per slice, and the kernel
        #: times taken before the first slice and after each one.
        self.slices: List[Tuple[float, float, int]] = []
        self.kernels_ms: List[float] = []

    def build(self, build, spec):
        """Timed ``build(spec)``."""
        kernel_before = self.probe.kernel_ms()
        start = time.perf_counter()
        built = build(spec)
        self.setup_raw_s = time.perf_counter() - start
        kernel = (kernel_before + self.probe.kernel_ms()) / 2
        self.setup_s = self.setup_raw_s * REFERENCE_KERNEL_MS / kernel
        if self.tracer is not None:
            for name in ("HostSystem.prefill", "synthesize_steady_state", "Simulator.run_until"):
                self.setup_spans[name] = self.tracer.total_s(name)
            self.setup_spans["predicted_waf"] = (
                self.tracer.kept["synthesize_steady_state"] or [0.0]
            )[-1]
        return built

    def open(self, host, collector) -> None:
        self.host, self.collector = host, collector
        self.before = snapshot(host)
        if self.tracer is not None:
            self.tracer.begin_window(host)
        self.kernels_ms.append(self.probe.kernel_ms())
        self._units_done = 0
        self._cpu_start = time.process_time()
        self._slice_start = time.perf_counter()
        collector.begin()

    def mark(self, units_done: int) -> None:
        """A slice ended: ``units_done`` work units since the window opened."""
        elapsed = time.perf_counter() - self._slice_start
        cpu = time.process_time() - self._cpu_start
        self.kernels_ms.append(self.probe.kernel_ms())
        self.slices.append((elapsed, cpu, units_done - self._units_done))
        self._units_done = units_done
        self._cpu_start = time.process_time()
        self._slice_start = time.perf_counter()

    def close(self) -> None:
        self.collector.end()
        if self.tracer is not None:
            self.tracer.end_window()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.wall_raw_s = sum(s[0] for s in self.slices)
        self.cpu_s = sum(s[1] for s in self.slices)
        speed = smoothed(self.kernels_ms)
        self.wall_s = sum(
            s[0] * REFERENCE_KERNEL_MS / ((before + after) / 2)
            for s, before, after in zip(self.slices, speed, speed[1:])
        )
        after = snapshot(self.host)
        self.delta = {key: after[key] - self.before[key] for key in after}
        self.metrics = self.collector.results()
        #: Application ops of the live host: entered the dispatcher /
        #: recorded complete by the collector (two independent counters).
        self.app_issued = self.delta["io.issued"]
        self.app_completed = self.collector.iops_meter.window_ops()


def advance_in_slices(window: Window, duration_ns: int, slice_ns: int) -> int:
    """``runner._advance_tolerating_death`` in timed slices.

    Stopping the clock at a slice boundary changes nothing simulated.
    Returns how many events died: a write against a read-only device
    raises out of its event, and the closed-loop actor behind it never
    completes that op.
    """
    sim = window.host.sim
    end = sim.now + duration_ns
    events_before = sim.dispatched
    deaths = 0
    while sim.now < end:
        target = min(end, sim.now + slice_ns)
        while sim.now < target:
            try:
                sim.run_until(target)
            except DeviceReadOnlyError:
                deaths += 1
        window.mark(sim.dispatched - events_before)
    return deaths


def run_scenario_window(workload: Workload, spec, window: Window) -> dict:
    host, collector, actors, _ = window.build(build_preconditioned_host, spec)
    window.open(host, collector)
    deaths = advance_in_slices(window, spec.measure_s * SECOND, workload.slice_len * SECOND)
    window.close()
    actors.stop()
    return {
        "attempted": window.app_issued,
        "completed": window.app_completed,
        "killed": deaths,
        "points": [],
    }


def run_crash_window(workload: Workload, spec, seconds: float, window: Window) -> dict:
    original = crashsweep.build_preconditioned_host

    def build_and_open(spec, deadline=None):
        built = window.build(original, spec)
        window.open(built[0], built[1])
        return built

    def after_point(point) -> None:
        done = point.index + 1
        if done % workload.slice_len == 0:
            window.mark(done)

    # The sweep builds its own host; wrapping the name it imported is the
    # one place where set-up ends and the sweep begins.
    crashsweep.build_preconditioned_host = build_and_open
    try:
        result = crashsweep.run_crash_sweep(
            spec,
            points=workload.window(seconds),
            stride_events=CRASH_STRIDE_EVENTS,
            nested_every=CRASH_NESTED_EVERY,
            progress=after_point,
        )
    finally:
        crashsweep.build_preconditioned_host = original
    if len(result.points) % workload.slice_len:
        window.mark(len(result.points))  # the last, shorter slice
    window.close()
    return {
        "attempted": len(result.points),
        "completed": result.passed,
        "killed": 0,
        "points": result.points,
    }


def check_outputs(workload: Workload, spec, window: Window, ran: dict):
    """The output checks of one window.

    Returns ``(checks, failed ops, end-of-window scan ns)``; ``checks``
    maps a check's name to "" when it passed, else to what failed.
    """
    host, delta = window.host, window.delta
    checks: Dict[str, str] = {}

    def check(label: str, fn) -> None:
        try:
            checks[label] = fn() or ""
        except (AssertionError, FtlError) as exc:
            checks[label] = f"{type(exc).__name__}: {exc}"

    check("ftl_invariants", host.ftl.invariant_check)
    # Every window ends with a hypothetical power cut: the device must
    # come back read-identical.  Its simulated power-on time is the
    # recovery sample of the cells that are not crash sweeps.
    end_scan_ns: List[int] = []
    check(
        "end_of_window_recovery",
        lambda: end_scan_ns.append(
            crashsweep.verify_crash_point(host.ftl, host.config).duration_ns
        ),
    )
    lost_reads = delta["ftl.uncorrectable_reads"] + delta["ftl.uecc_count"]
    bad_points = [p for p in ran["points"] if not p.ok]
    failed = ran["killed"] + lost_reads + len(bad_points)
    # Ops in flight at either window edge: at most one per actor.
    in_flight = 0 if workload.crash_sweep else spec.workload_kwargs.get("actors", 4)
    drift = ran["attempted"] - ran["completed"] - len(bad_points) - ran["killed"]
    checks["op_accounting"] = (
        ""
        if abs(drift) <= in_flight
        else f"attempted {ran['attempted']} != completed {ran['completed']} "
        f"+ failed (off by {drift}, {in_flight} may be in flight)"
    )
    checks["no_failed_ops"] = "" if failed == 0 else (
        f"{ran['killed']} ops killed by a read-only device, {lost_reads} "
        f"unrecoverable reads, {len(bad_points)} crash points diverged"
        + (f" (first: {bad_points[0].error})" if bad_points else "")
    )
    checks["device_writable"] = (
        "device went read-only" if window.metrics.device_read_only else ""
    )
    return checks, failed, end_scan_ns


def run_cell(
    name: str, seed: int, seconds: float, traced: bool, trace_out: Optional[str] = None
) -> dict:
    workload = WORKLOADS[name]
    spec = workload.spec_for(seed, seconds)
    tracer = LayerTracer.install() if traced else None
    window = Window(tracer)
    try:
        if workload.crash_sweep:
            ran = run_crash_window(workload, spec, seconds, window)
        else:
            ran = run_scenario_window(workload, spec, window)
    finally:
        if tracer is not None:
            tracer.uninstall()
    host, m, delta = window.host, window.metrics, window.delta
    points = ran["points"]
    checks, failed, end_scan_ns = check_outputs(workload, spec, window, ran)

    scans_ms = [p.scan_ns / 1e6 for p in points if p.ok] or [
        ns / 1e6 for ns in end_scan_ns
    ]
    digest = hashlib.sha256(
        json.dumps(
            {
                "metrics": m.to_wire(),
                "points": sorted(
                    (p.index, p.t_ns, p.scan_ns, p.torn_pages) for p in points
                ),
                "end_scan_ns": end_scan_ns,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()

    kernels = window.kernels_ms
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "correct": not any(checks.values()),
        "checks": checks,
        "attempted": ran["attempted"],
        "failed": failed,
        "ops": ran["completed"],
        "sim_digest": digest,
        "noisy": abs(kernels[-1] - kernels[0]) > NOISY_KERNEL_DRIFT * kernels[0],
        "diagnostics": {
            "host_kernel_ms": [min(kernels), percentile(kernels, 50), max(kernels)],
            "cpu_s": window.cpu_s,
            "wall_raw_s": window.wall_raw_s,
            "setup_raw_s": window.setup_raw_s,
            "slices": len(window.slices),
            "sim_events": delta["sim.events"],
            "sim_window_s": m.duration_ns / SECOND,
            "latency_ops": (m.latency_hist or {}).get("count", 0),
            "recovery_points": len(scans_ms),
        },
        "end_to_end": {
            "setup_s": window.setup_s,
            "wall_s": window.wall_s,
            "ops_per_wall_s": ran["completed"] / window.wall_s,
            "peak_rss_mb": window.peak_rss_mb,
            "sim_iops": m.iops,
            "sim_waf": m.waf,
            "sim_lat_p50_us": m.p50_latency_ns / 1e3,
            "sim_lat_p99_ms": m.p99_latency_ns / 1e6,
            "sim_recovery_ms_p50": percentile(scans_ms, 50) if scans_ms else 0.0,
            "sim_recovery_ms_p95": percentile(scans_ms, 95) if scans_ms else 0.0,
        },
    }
    if traced:
        result["per_layer"], result["budget"] = per_layer_metrics(window, ran, host)
        if trace_out:
            tracer.dump(trace_out)
    return result


def run_setup_only(name: str, seed: int, seconds: float) -> dict:
    """Just the set-up, so ``setup_s`` can be a median over processes."""
    window = Window()
    window.build(build_preconditioned_host, WORKLOADS[name].spec_for(seed, seconds))
    return {"setup_s": window.setup_s, "setup_raw_s": window.setup_raw_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.setup_only:
        result = run_setup_only(args.workload, args.seed, args.seconds)
    else:
        result = run_cell(
            args.workload, args.seed, args.seconds, bool(args.trace), args.trace_out
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
