"""Shared configuration and caching for the benchmark harness.

Every bench regenerates one of the paper's tables/figures at a reduced
scale (smaller device, shorter measurement window) so the full suite
finishes in minutes.  Experiment results are cached per process: the two
panels of a figure (e.g. Fig. 2a IOPS and Fig. 2b WAF) come from the
same sweep rather than running it twice, and Tables 1-3 read their
columns of the cached Fig. 7 grid instead of running them again.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import (
    Fig2Result,
    Fig7Result,
    ScenarioSpec,
    Table1Result,
    Table2Result,
    Table3Result,
    run_fig2,
    run_fig7,
)

#: Reduced-scale scenario shared by all benches.
def quick_spec() -> ScenarioSpec:
    # The runner's default device scale (OP capacity in proportion to
    # per-horizon traffic, as on the real SM843T) with shortened windows.
    return ScenarioSpec(
        blocks=1024,
        pages_per_block=64,
        warmup_s=10,
        measure_s=40,
    )


_cache: Dict[str, object] = {}


def fig2_result() -> Fig2Result:
    if "fig2" not in _cache:
        _cache["fig2"] = run_fig2(quick_spec())
    return _cache["fig2"]


def fig7_result() -> Fig7Result:
    if "fig7" not in _cache:
        _cache["fig7"] = run_fig7(quick_spec())
    return _cache["fig7"]


def table1_result() -> Table1Result:
    return Table1Result.from_grid(fig7_result().raw)


def table2_result() -> Table2Result:
    return Table2Result.from_grid(fig7_result().raw)


def table3_result() -> Table3Result:
    return Table3Result.from_grid(fig7_result().raw)
