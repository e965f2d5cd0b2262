"""The scenario runner: one function per measured (workload, policy) pair.

Every experiment in the paper reduces to running one benchmark against
one GC policy on an identically configured device and measuring IOPS and
WAF over a steady-state window.  :func:`run_scenario` encapsulates that
protocol:

1. build the device + host stack with the policy installed,
2. pre-fill the working set (half the user capacity, as in Sec 4.1),
3. start the workload and let it run a warm-up period,
4. measure for the configured duration,
5. freeze a :class:`~repro.metrics.collector.RunMetrics`.

All runs of one comparison share the same :class:`ScenarioSpec` except
for the policy, and the same seed -- so the workloads replay identically
and metric differences are attributable to the policy alone.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.policies import (
    AdaptiveGcPolicy,
    GcPolicy,
    JitGcPolicy,
    aggressive_bgc_policy,
    lazy_bgc_policy,
)
from repro.experiments.persistence import SweepCheckpoint
from repro.faults import FAULT_PROFILES
from repro.ftl.ftl import DeviceReadOnlyError
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.obs import Observability, ObservabilityConfig
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.workloads import WORKLOADS, Region


class ScenarioTimeoutError(RuntimeError):
    """A scenario exceeded its wall-clock budget and was aborted."""

#: Factories for the four policies of Fig. 7 (fresh instance per run).
POLICY_FACTORIES: Dict[str, Callable[[], GcPolicy]] = {
    "L-BGC": lazy_bgc_policy,
    "A-BGC": aggressive_bgc_policy,
    "ADP-GC": AdaptiveGcPolicy,
    "JIT-GC": JitGcPolicy,
}


#: Valid ``ScenarioSpec.warm_start`` modes.
WARM_START_MODES = ("sim", "analytic")


def _kib(text: str) -> int:
    """``--cmt-budget-kb`` converter: KiB on the command line, bytes in the spec."""
    return int(text) * 1024


def _flag(default, flag: str, help: str, **argparse_kwargs):
    """A field that is also a CLI flag; :mod:`repro.cli` reads the metadata."""
    return field(
        default=default,
        metadata={"flag": flag, "argparse": dict(help=help, **argparse_kwargs)},
    )


@dataclass
class ScenarioSpec:
    """One measured run's full parameterisation.

    A field declared with ``_flag`` *is* that CLI flag: its spelling,
    help text, choices and converter live in the field's metadata, and
    :mod:`repro.cli` derives every subcommand's scenario flags from it.
    Those fields are described by their help text; the rest:

    Attributes:
        policy_factory: custom policy constructor, used instead of
            ``policy`` (Fig. 2's sweep).
        op_ratio: over-provisioning ratio (SM843T: 7 %).
        flusher_period_s / tau_expire_s: the write-back constants ``p``
            and ``tau_expire``.  The paper uses 5 s / 30 s on a 240 GB
            device; the scaled default (1 s / 6 s) keeps ``Nwb = 6`` and
            keeps per-horizon traffic in the same proportion to the OP
            capacity as on the real testbed.
        workload_kwargs: extra workload-constructor arguments.
        timeout_s: optional wall-clock budget for this scenario; on
            expiry :class:`ScenarioTimeoutError` is raised (and isolated
            by :func:`run_sweep`).
        obs: optional :class:`~repro.obs.ObservabilityConfig` -- tracing,
            metrics sampling and profiling for this run.  Not part of
            :meth:`key`: instrumentation never changes simulated
            behaviour, so observed and unobserved runs are the same
            scenario.

    ``fault_profile`` and ``reliability`` also take a profile instance
    (:class:`~repro.faults.injector.FaultProfile`,
    :class:`~repro.nand.reliability.ReliabilityProfile`); None disables
    either, and ``reliability="off"`` is stored as None so both spell
    one scenario.
    """

    workload: str = _flag(
        "YCSB", "--workload", "benchmark to run", choices=sorted(WORKLOADS)
    )
    policy: str = _flag(
        "JIT-GC", "--policy", "GC policy under test", choices=sorted(POLICY_FACTORIES)
    )
    policy_factory: Optional[Callable[[], GcPolicy]] = None
    blocks: int = _flag(1024, "--blocks", "erase blocks on the device", type=int)
    pages_per_block: int = _flag(
        64, "--pages-per-block", "pages per erase block", type=int
    )
    op_ratio: float = 0.07
    working_set_fraction: float = _flag(
        0.5, "--working-set", "share of user capacity the benchmark touches "
        "(paper: one half)", type=float, metavar="F",
    )
    warmup_s: int = _flag(
        40, "--warmup", "simulated seconds of preconditioning before the "
        "measurement window", type=int, metavar="S",
    )
    measure_s: int = _flag(
        180, "--measure", "simulated seconds measured", type=int, metavar="S"
    )
    flusher_period_s: int = 1
    tau_expire_s: int = 6
    seed: int = _flag(42, "--seed", "root seed, shared by compared policies", type=int)
    workload_kwargs: dict = field(default_factory=dict)
    fault_profile: Optional[object] = _flag(
        None, "--faults", "media-fault injection profile",
        choices=sorted(FAULT_PROFILES),
    )
    checkpoint_interval: Optional[int] = _flag(
        None, "--checkpoint-interval", "write a durable mapping checkpoint "
        "every PAGES host pages (bounds post-power-cut recovery to a "
        "log-tail scan; default: off)", type=int, metavar="PAGES",
    )
    timeout_s: Optional[float] = None
    obs: Optional[ObservabilityConfig] = None
    warm_start: str = _flag(
        "sim", "--warm-start", "preconditioning mode: 'sim' replays the "
        "prefill + warmup simulation (reference); 'analytic' synthesizes the "
        "predicted steady state directly and skips the warmup (see "
        "PERFORMANCE.md)", choices=WARM_START_MODES,
    )
    mapping: str = _flag(
        "dram", "--mapping", "FTL mapping architecture: 'dram' keeps the whole "
        "page map in DRAM (reference); 'dftl' stores translation pages on NAND "
        "behind a cached mapping table (see DESIGN.md)", choices=("dram", "dftl"),
    )
    cmt_budget_bytes: Optional[int] = _flag(
        None, "--cmt-budget-kb", "cached-mapping-table DRAM budget in KiB "
        "(dftl only; default: 1/64 of the full in-DRAM map)",
        type=_kib, metavar="KIB",
    )
    checkpoint_policy: str = _flag(
        "interval", "--checkpoint-policy", "checkpoint scheduling: 'interval' "
        "fires on a fixed host-page count; 'adaptive' fires on actual "
        "tail-scan accrual (all program streams) and early during GC "
        "quiescence", choices=("interval", "adaptive"),
    )
    reliability: Optional[object] = _flag(
        None, "--reliability", "data-integrity subsystem profile: retention "
        "clock, ECC read-retry escalation ladder and background refresh scrub "
        "('off' keeps the historical bit-identical device; 'mlc-20nm-accel' "
        "compresses retention physics into simulated seconds for demos/tests)",
        choices=("off", "mlc-20nm", "mlc-20nm-accel"),
    )

    def __post_init__(self) -> None:
        if self.reliability == "off":
            self.reliability = None
        for name, ok, rule in (
            ("measure_s", self.measure_s >= 1, ">= 1"),
            ("warmup_s", self.warmup_s >= 0, ">= 0"),
            ("working_set_fraction", 0 < self.working_set_fraction <= 1, "in (0, 1]"),
            ("flusher_period_s", self.flusher_period_s >= 1, ">= 1"),
            ("tau_expire_s", self.tau_expire_s >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def with_policy(self, policy: str, factory: Optional[Callable[[], GcPolicy]] = None):
        """Same scenario, different policy (identical workload replay)."""
        return replace(self, policy=policy, policy_factory=factory)

    def key(self) -> str:
        """Stable identity used for checkpointing and sweep reports."""
        key = f"{self.workload}/{self.policy}/seed{self.seed}/faults-{self.fault_tag()}"
        if self.checkpoint_interval is not None:
            # Suffix only when set, so pre-existing sweep checkpoints
            # keep resolving to the same scenarios.
            key += f"/ckpt{self.checkpoint_interval}"
        if self.warm_start != "sim":
            # Same suffix-only-when-set rule; a warm-started run is a
            # different measurement than its simulated-warmup oracle.
            key += f"/warm-{self.warm_start}"
        if self.mapping != "dram":
            # Suffix-only-when-set again: dram-mode keys are unchanged.
            key += f"/map-{self.mapping}"
        if self.checkpoint_policy != "interval":
            key += f"/ckpt-{self.checkpoint_policy}"
        if self.reliability is not None:
            key += f"/rel-{self.reliability_tag()}"
        return key

    def make_policy(self) -> GcPolicy:
        if self.policy_factory is not None:
            return self.policy_factory()
        if self.policy not in POLICY_FACTORIES:
            raise KeyError(
                f"unknown policy {self.policy!r}; known: {sorted(POLICY_FACTORIES)}"
            )
        return POLICY_FACTORIES[self.policy]()

    def make_config(self) -> SsdConfig:
        return SsdConfig.small(
            blocks=self.blocks,
            pages_per_block=self.pages_per_block,
            op_ratio=self.op_ratio,
            fault_profile=self.fault_profile,
            checkpoint_interval_pages=self.checkpoint_interval,
            mapping_mode=self.mapping,
            cmt_budget_bytes=self.cmt_budget_bytes,
            checkpoint_policy=self.checkpoint_policy,
            reliability=self.reliability,
        )

    def fault_tag(self) -> str:
        """Human-readable fault-profile label (trace headers, keys)."""
        faults = self.fault_profile
        return faults if isinstance(faults, str) else ("custom" if faults else "none")

    def reliability_tag(self) -> str:
        """Human-readable reliability-profile label (trace headers, keys)."""
        rel = self.reliability
        if rel is None:
            return "off"
        if isinstance(rel, str):
            return rel
        return getattr(rel, "name", "custom")

    def make_obs(self) -> Optional[Observability]:
        """The run's observability (None without ``obs``), its trace
        header stamped with :meth:`trace_header`."""
        if self.obs is None:
            return None
        return Observability.from_config(self.obs, header=self.trace_header())

    def trace_header(self) -> dict:
        """Attribution fields stamped into every trace/metrics file."""
        return {
            "scenario": self.key(),
            "workload": self.workload,
            "policy": self.policy,
            "seed": self.seed,
            "fault_profile": self.fault_tag(),
            "blocks": self.blocks,
            "pages_per_block": self.pages_per_block,
            "warmup_s": self.warmup_s,
            "measure_s": self.measure_s,
            "warm_start": self.warm_start,
            "mapping": self.mapping,
            "reliability": self.reliability_tag(),
        }


@contextmanager
def _wall_clock_limit(seconds: Optional[float]):
    """Abort the enclosed block after ``seconds`` of real time.

    Uses ``SIGALRM``, so it is active only on the main thread of a
    platform that has it; elsewhere the limit is a silent no-op (the
    sweep still has exception isolation, just no timeout).
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise ScenarioTimeoutError(f"scenario exceeded {seconds:g}s wall clock")

    previous = signal.signal(signal.SIGALRM, _expired)
    # Repeating interval, not one-shot: a delivery that lands in an
    # unraisable context (e.g. a __del__ frame during GC) is suppressed
    # by the interpreter, and a one-shot timer would then never abort
    # the scenario.  With an interval the next tick retries.
    signal.setitimer(signal.ITIMER_REAL, float(seconds), float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: Simulated seconds an analytically warm-started run advances before
#: its measurement window opens.  The synthesized device is already at
#: steady state, but the *host* is not: the page cache is empty and the
#: flusher/predictor timers have no history.  A few write-back periods
#: of settling lets those reach their working rhythm; the data-plane
#: aging that dominates ``warmup_s`` is what the synthesis replaced.
#: Four seconds also keeps the window opening phase-aligned with the
#: default simulated warm-up for duty-cycled workloads (YCSB's ON/OFF
#: period is 4 s and the default ``warmup_s=40`` is a multiple of it),
#: so IOPS comparisons are not skewed by how many ON phases land inside
#: a short measurement window.
_ANALYTIC_SETTLE_S = 4


def build_preconditioned_host(
    spec: ScenarioSpec,
    deadline: Optional[float] = None,
) -> Tuple[HostSystem, MetricsCollector, object, int]:
    """Build ``spec``'s host stack and bring it to measurement-ready state.

    The shared preconditioning step of every experiment entry point
    (:func:`run_scenario`, the crash sweep, the live-SPO runner):

    * ``warm_start="sim"`` -- prefill the working set, churn to the
      logically-full state, then run the simulated warm-up window;
    * ``warm_start="analytic"`` -- synthesize the mean-field steady
      state directly into the data plane
      (:func:`repro.analytic.warmstart.synthesize_steady_state`), seed
      the policy's demand history from the prediction, and run only a
      short settle window (:data:`_ANALYTIC_SETTLE_S`).

    Returns ``(host, collector, workload, measure_start_ns)``: the
    workload is started, simulated time stands at ``measure_start_ns``,
    and the caller opens the measurement window with
    ``collector.begin()``.

    A device that goes read-only during preconditioning is tolerated
    (fault profiles can exhaust the spare capacity); the run proceeds
    and measures the degraded outcome.
    """
    from repro.analytic.warmstart import synthesize_steady_state, workload_mix_hints

    if spec.warm_start not in WARM_START_MODES:
        raise ValueError(
            f"unknown warm_start {spec.warm_start!r}; known: {WARM_START_MODES}"
        )
    if spec.workload not in WORKLOADS:
        raise KeyError(
            f"unknown workload {spec.workload!r}; known: {sorted(WORKLOADS)}"
        )
    config = spec.make_config()
    policy = spec.make_policy()
    obs = spec.make_obs()
    host_kwargs = dict(
        seed=spec.seed,
        flusher_period_ns=spec.flusher_period_s * SECOND,
        tau_expire_ns=spec.tau_expire_s * SECOND,
        obs=obs,
    )

    if spec.warm_start == "analytic":
        working_set = int(config.space_model().user_pages * spec.working_set_fraction)
        ftl, prediction = synthesize_steady_state(
            config,
            seed=spec.seed,
            working_set_pages=working_set,
            policy=policy,
            registry=obs.registry if obs is not None else None,
            **workload_mix_hints(spec.workload, spec.workload_kwargs),
        )
        host = HostSystem(config, policy, ftl=ftl, **host_kwargs)
        policy.seed_steady_state(prediction)
        precondition_ns = min(spec.warmup_s, _ANALYTIC_SETTLE_S) * SECOND
    else:
        host = HostSystem(config, policy, **host_kwargs)
        working_set = int(host.user_pages * spec.working_set_fraction)
        try:
            host.prefill(working_set)
        except DeviceReadOnlyError:
            # Spare capacity exhausted during preconditioning: still a
            # measurable (fully degraded) outcome, not a harness error.
            pass
        precondition_ns = spec.warmup_s * SECOND

    collector = MetricsCollector(host, workload_name=spec.workload)
    workload = WORKLOADS[spec.workload](
        host, collector, Region(0, working_set), **spec.workload_kwargs
    )
    workload.start()
    _advance_tolerating_death(host, precondition_ns, deadline, spec.timeout_s)
    return host, collector, workload, precondition_ns


def run_scenario(spec: ScenarioSpec) -> RunMetrics:
    """Execute one scenario per the Sec 4.1 protocol; returns metrics.

    A device that reaches its read-only terminal state mid-run (fault
    profiles can exhaust the spare capacity) is not an error: the window
    is frozen at the failure point and the returned metrics carry
    ``device_read_only=True``.

    ``spec.timeout_s`` is enforced two ways: a monotonic deadline checked
    at event-loop batch boundaries (works on any thread, including pool
    workers), plus the ``SIGALRM`` backstop where available (covers
    non-event phases like prefill on a main thread).
    """
    return _run_scenario_host(spec)[0]


def _run_scenario_host(spec: ScenarioSpec) -> Tuple[RunMetrics, HostSystem]:
    """:func:`run_scenario`, also returning the live host.

    Internal: the hot-path equivalence tests use the host to compare
    decision-audit streams, not just the frozen metrics.
    """
    deadline: Optional[float] = None
    if spec.timeout_s is not None and spec.timeout_s > 0:
        deadline = time.monotonic() + spec.timeout_s
    with _wall_clock_limit(spec.timeout_s):
        host, metrics, workload, _measure_start = build_preconditioned_host(
            spec, deadline
        )
        metrics.begin()
        _advance_tolerating_death(
            host, spec.measure_s * SECOND, deadline, spec.timeout_s
        )
        metrics.end()
        workload.stop()
        results = metrics.results()
        host.obs.finish()
        report = host.obs.profile_report()
        if report is not None:
            print(report)
        return results, host


#: Events dispatched between wall-clock deadline probes.  Large enough
#: that the ``time.monotonic`` call is noise, small enough that a budget
#: overrun is noticed within milliseconds.
_DEADLINE_BATCH_EVENTS = 1024


def _advance_tolerating_death(
    host: HostSystem,
    duration_ns: int,
    deadline: Optional[float] = None,
    budget_s: Optional[float] = None,
) -> bool:
    """Advance simulated time, tolerating the device going read-only.

    Each write submitted against a read-only device raises out of its
    event; the raising event has already been consumed, so draining to
    the target time terminates.  Closed-loop workloads stall naturally
    once their in-flight op dies, reads keep completing, and the clock
    still reaches the window edge so the metrics stay well-formed.
    Returns True when at least one event died.

    With ``deadline`` set (``time.monotonic()`` value), events run in
    batches of :data:`_DEADLINE_BATCH_EVENTS` and the deadline is checked
    between batches -- the wall-clock budget mechanism that works on pool
    worker threads where ``SIGALRM`` cannot (signals only reach a
    process's main thread).

    Raises:
        ScenarioTimeoutError: the deadline passed.
    """
    target = host.sim.now + duration_ns
    died = False
    monotonic = time.monotonic
    while host.sim.now < target:
        try:
            if deadline is None:
                host.sim.run_until(target)
            else:
                host.sim.run_until(target, max_events=_DEADLINE_BATCH_EVENTS)
                if monotonic() > deadline:
                    raise ScenarioTimeoutError(
                        f"scenario exceeded {budget_s:g}s wall clock"
                        if budget_s is not None
                        else "scenario exceeded its wall-clock budget"
                    )
        except DeviceReadOnlyError:
            died = True
    return died


def resolve_jobs(jobs: Optional[int], task_count: int) -> int:
    """Concrete worker count for a requested ``--jobs`` value.

    ``None`` or ``0`` means *adaptive*: one worker per CPU
    (``os.cpu_count()``), never more than there are tasks.  Explicit
    requests are honoured, capped at the task count (extra idle workers
    only cost fork time).  Always returns at least 1.
    """
    if task_count <= 0:
        return 1
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, task_count))


def _run_worker(spec: ScenarioSpec) -> Tuple[Optional[dict], Optional[str]]:
    """Pool worker: one scenario's ``(wire, error)``.

    The metrics travel back through the future as a plain
    :meth:`~repro.metrics.collector.RunMetrics.to_wire` dict; a scenario
    that raises comes back as its ``"ExcType: message"`` instead.
    """
    try:
        return run_scenario(spec).to_wire(), None
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return None, f"{type(exc).__name__}: {exc}"


def _run_pooled(
    pending: Dict[str, ScenarioSpec],
    jobs: int,
    record: Callable[[str, Optional[RunMetrics], Optional[str]], None],
) -> None:
    """Run scenarios on ``jobs`` worker processes.

    Submission is chunked to a window of two tasks per worker (enough to
    keep every worker busy without materialising thousands of queued
    pickled specs), and ``record`` runs in the parent as each future
    completes, exactly like the serial path's per-scenario bookkeeping.

    A worker process dying hard breaks the pool: its future and every
    other outstanding one raise ``BrokenProcessPool``, and so does any
    later submission.  Each such scenario is recorded as failed, so a
    checkpointed sweep retries it on resume.
    """
    items = iter(pending.items())
    outstanding: Dict[Future, str] = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while True:
            for key, spec in islice(items, 2 * jobs - len(outstanding)):
                try:
                    outstanding[pool.submit(_run_worker, spec)] = key
                except Exception as exc:  # noqa: BLE001 - broken pool
                    # The pool is unusable; fail this and every
                    # unsubmitted scenario (all retryable on resume).
                    for failed, _spec in chain([(key, spec)], items):
                        record(failed, None, f"{type(exc).__name__}: {exc}")
            if not outstanding:
                return
            done, _ = wait(outstanding, return_when=FIRST_COMPLETED)
            for future in done:
                key = outstanding.pop(future)
                exc = future.exception()
                if exc is not None:
                    record(key, None, f"{type(exc).__name__}: {exc}")
                    continue
                wire, error = future.result()
                record(key, None if wire is None else RunMetrics.from_wire(wire), error)


def run_policy_comparison(
    spec: ScenarioSpec,
    policies: Optional[Dict[str, Callable[[], GcPolicy]]] = None,
    jobs: Optional[int] = 1,
) -> Dict[str, RunMetrics]:
    """Run one workload under several policies (identical everything else).

    With ``jobs > 1`` (or the adaptive ``jobs=0``/``None``, resolved via
    :func:`resolve_jobs`) the per-policy runs execute in a process pool
    -- each scenario is already a self-contained deterministic replay
    (own simulator, own seeded RNGs), so results are bit-identical to the
    serial path and come back in the given policy order.

    Returns ``{policy_name: RunMetrics}`` in the given order.

    Raises:
        RuntimeError: a parallel run failed (the serial path instead
            propagates the scenario's original exception).
    """
    policies = policies or POLICY_FACTORIES
    run_specs: Dict[str, ScenarioSpec] = {}
    for name, factory in policies.items():
        run_spec = spec.with_policy(name, factory)
        if run_spec.obs is not None and run_spec.obs.trace_path:
            # Per-policy trace files: compared runs never overwrite
            # each other's output.
            run_spec = replace(run_spec, obs=run_spec.obs.with_suffix(name))
        run_specs[name] = run_spec
    jobs = resolve_jobs(jobs, len(run_specs))
    if jobs <= 1:
        return {name: run_scenario(s) for name, s in run_specs.items()}
    results: Dict[str, RunMetrics] = {}
    failures: Dict[str, str] = {}

    def _record(name: str, metrics: Optional[RunMetrics], error: Optional[str]) -> None:
        if error is not None:
            failures[name] = error
        else:
            results[name] = metrics

    _run_pooled(run_specs, jobs, _record)
    if failures:
        raise RuntimeError(f"policy comparison failed: {failures}")
    return {name: results[name] for name in run_specs}


@dataclass
class SweepOutcome:
    """What a crash-tolerant sweep produced.

    Attributes:
        results: scenario key -> metrics for every scenario that has ever
            completed (including ones restored from the checkpoint).
        failures: scenario key -> ``"ExcType: message"`` for scenarios
            that raised on *this* invocation (or remain failed from a
            previous one and were not retried successfully).
        skipped: keys that were already complete in the checkpoint and
            were not re-run.
    """

    results: Dict[str, RunMetrics] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)

    def ok(self) -> bool:
        """True when every scenario in the sweep has a result."""
        return not self.failures


def run_sweep(
    specs: Union[Iterable[ScenarioSpec], Dict[str, ScenarioSpec]],
    checkpoint: Optional[Union[str, SweepCheckpoint]] = None,
    resume: bool = True,
    timeout_s: Optional[float] = None,
    on_result: Optional[Callable[[str, RunMetrics], None]] = None,
    jobs: Optional[int] = 1,
) -> SweepOutcome:
    """Run many scenarios with per-scenario fault isolation.

    One scenario raising -- a bug, an injected-fault cascade, a
    :class:`ScenarioTimeoutError` -- is recorded and the sweep moves on;
    it never takes down the remaining scenarios.  With ``checkpoint``
    set, every completed scenario is flushed to disk immediately, and a
    re-run with ``resume=True`` skips everything already measured, so a
    killed sweep loses at most the scenario it was inside.

    With more than one worker (``jobs > 1``, or the adaptive
    ``jobs=0``/``None`` resolved by :func:`resolve_jobs`), scenarios run
    in a ``ProcessPoolExecutor``: submission is chunked, and each worker
    returns its scenario's metrics through the future as a flat wire
    dict, not a pickled :class:`RunMetrics`.  Each scenario is a
    self-contained deterministic replay (its own simulator and seeded
    RNGs), so per-scenario results are bit-identical to a serial run;
    only completion order varies, and ``results`` is re-ordered to the
    input order before returning.  The checkpoint is
    written exclusively by the parent process (one atomic write per
    completion, exactly as in a serial run), so serial and parallel runs
    can freely resume each other's checkpoints.  Per-scenario wall-clock
    budgets apply in workers too: the runner checks a monotonic deadline
    at event-loop batch boundaries (``SIGALRM`` only works on a process's
    main thread, so the signal timer is merely a serial-path backstop).

    Args:
        specs: the scenarios, either keyed explicitly (dict) or keyed by
            :meth:`ScenarioSpec.key`.  Duplicate keys are an error --
            they would silently overwrite each other's results.
        checkpoint: path or :class:`SweepCheckpoint` for durability;
            None keeps everything in memory only.
        resume: skip scenarios the checkpoint already holds.
        timeout_s: wall-clock budget applied to every scenario that does
            not set its own ``timeout_s``.
        on_result: optional callback invoked after each fresh completion
            (progress reporting); called from the parent process.
        jobs: worker processes (1 = run in-process, serially; 0/None =
            one per CPU, capped at the pending-scenario count).
    """
    if isinstance(specs, dict):
        keyed = dict(specs)
    else:
        keyed = {}
        for spec in specs:
            key = spec.key()
            if key in keyed:
                raise ValueError(f"duplicate scenario key {key!r}; key specs explicitly")
            keyed[key] = spec

    store: Optional[SweepCheckpoint] = None
    if checkpoint is not None:
        store = (
            checkpoint
            if isinstance(checkpoint, SweepCheckpoint)
            else SweepCheckpoint(checkpoint)
        )
        if resume:
            store.load()

    outcome = SweepOutcome()
    pending: Dict[str, ScenarioSpec] = {}
    for key, spec in keyed.items():
        if store is not None and resume and store.is_completed(key):
            outcome.results[key] = store.completed[key]
            outcome.skipped.append(key)
            continue
        if spec.timeout_s is None and timeout_s is not None:
            spec = replace(spec, timeout_s=timeout_s)
        if spec.obs is not None and spec.obs.trace_path:
            # Per-scenario trace files, same suffix rule serial or not.
            spec = replace(spec, obs=spec.obs.with_suffix(key.replace("/", "_")))
        pending[key] = spec

    def _record(key: str, metrics: Optional[RunMetrics], error: Optional[str]) -> None:
        if error is not None:
            outcome.failures[key] = error
            if store is not None:
                store.record_failure(key, error)
            return
        outcome.results[key] = metrics
        if store is not None:
            store.record_success(key, metrics)
        if on_result is not None:
            on_result(key, metrics)

    jobs = resolve_jobs(jobs, len(pending))
    if jobs <= 1:
        for key, spec in pending.items():
            try:
                metrics = run_scenario(spec)
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                _record(key, None, f"{type(exc).__name__}: {exc}")
                continue
            _record(key, metrics, None)
    elif pending:
        _run_pooled(pending, jobs, _record)
        # Completion order is nondeterministic; reports should not be.
        outcome.results = {
            key: outcome.results[key] for key in keyed if key in outcome.results
        }
    return outcome
