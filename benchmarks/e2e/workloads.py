"""The four workloads of the end-to-end series.

Each workload is one ``ScenarioSpec`` plus the length of its timed
window.  Lengths are given at ``FULL_SECONDS`` (the 20-30 s windows the
series was sized for) and scale linearly with ``--seconds``, so every
run at one ``--seconds`` value does identical simulated work on every
commit.  ``BENCHMARK.json`` carries the one-line reason each workload is
in the set; ``README.md`` carries the measured layer shares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.crashsweep import gc_heavy_spec
from repro.experiments.runner import ScenarioSpec
from repro.faults.injector import FaultProfile

#: ``--seconds`` value at which the windows below are used unscaled.
FULL_SECONDS = 30

#: Crash-sweep geometry of the sweep itself (fixed; only ``points`` scales).
CRASH_STRIDE_EVENTS = 512
CRASH_NESTED_EVERY = 4

#: Fires every fault path (program/erase fails, uncorrectable reads)
#: without retiring enough blocks to turn the 2048-block device read-only
#: inside the window, which the ``light`` preset does (README, defect b).
_CRASH_FAULTS = FaultProfile(
    program_fail_prob=2e-5, erase_fail_prob=2e-5, read_uncorrectable_prob=5e-5
)


@dataclass(frozen=True)
class Workload:
    """One cell: a scenario and the full-size length of its window.

    ``full_window`` is simulated seconds (``measure_s``) for the three
    scenario cells and crash points for ``crash-sweep``.  ``slice_len`` is
    the length, in the same unit, of the equal pieces the window is timed
    in (``cell.undisturbed_wall_s``): long enough to hold the workload's
    own cycle (YCSB's 4 s ON/OFF phase, one nested plus three plain crash
    points), short enough that a window has about fifty of them.
    """

    name: str
    spec: ScenarioSpec
    full_window: int
    slice_len: int
    crash_sweep: bool = False

    def window(self, seconds: float) -> int:
        """Window length at ``--seconds`` (never below one unit)."""
        return max(1, round(self.full_window * seconds / FULL_SECONDS))

    def spec_for(self, seed: int, seconds: float) -> ScenarioSpec:
        if self.crash_sweep:
            # measure_s only caps the sweep's span; the point count ends it.
            return replace(self.spec, seed=seed)
        return replace(self.spec, seed=seed, measure_s=self.window(seconds))


#: The synthetic generator's defaults (2048-op bursts, 8 s mean idle)
#: fit about ten cycles per actor in a window, and simulated IOPS then
#: swings 17-32 % from seed to seed on the draw of the idle lengths.  The
#: same 20 % duty cycle in 32x shorter cycles holds it to 2-3 %.
_SHORT_CYCLES = dict(burst_ops=64, idle_ns=250_000_000)


_CRASH_SPEC = gc_heavy_spec(
    blocks=2048,
    measure_s=600,
    trim_heavy=True,
    checkpoint_interval=2048,
    mapping="dftl",
    fault_profile=_CRASH_FAULTS,
)


def _synthetic(**kwargs) -> dict:
    return dict(actors=4, **kwargs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "buffered-ycsb",
            ScenarioSpec(
                workload="YCSB", blocks=1024, pages_per_block=64, warmup_s=40
            ),
            full_window=400,
            slice_len=4,
        ),
        Workload(
            "gc-direct",
            ScenarioSpec(
                workload="Synthetic",
                blocks=4096,
                pages_per_block=64,
                working_set_fraction=0.95,
                warmup_s=20,
                workload_kwargs=_synthetic(
                    direct_fraction=1.0,
                    write_fraction=0.95,
                    zipf_theta=0.0,
                    min_pages=8,
                    max_pages=32,
                ),
            ),
            full_window=6000,
            slice_len=60,
        ),
        Workload(
            "dftl-readmix",
            ScenarioSpec(
                workload="Synthetic",
                blocks=32768,
                pages_per_block=64,
                mapping="dftl",
                reliability="mlc-20nm",
                warm_start="analytic",
                working_set_fraction=0.6,
                warmup_s=10,
                workload_kwargs=_synthetic(
                    direct_fraction=0.5,
                    write_fraction=0.15,
                    zipf_theta=0.3,
                    min_pages=4,
                    max_pages=16,
                    **_SHORT_CYCLES,
                ),
            ),
            full_window=260,
            slice_len=2,
        ),
        Workload(
            "crash-sweep",
            replace(
                _CRASH_SPEC,
                workload_kwargs={**_CRASH_SPEC.workload_kwargs, **_SHORT_CYCLES},
            ),
            full_window=400,
            slice_len=CRASH_NESTED_EVERY,
            crash_sweep=True,
        ),
    )
}
