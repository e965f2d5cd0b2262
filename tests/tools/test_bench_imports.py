"""Every ``benchmarks/bench_*.py`` must import.

Tier-1 runs none of the paper-artifact benches, so a renamed experiment
symbol would otherwise surface only when someone regenerates the paper's
tables.  Importing a bench module runs no scenario.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in BENCHMARKS.glob("bench_*.py"))
)
def test_bench_module_imports(monkeypatch, name):
    # The benches put their own directory on sys.path to import _shared.
    monkeypatch.setattr(sys, "path", list(sys.path))
    importlib.import_module(f"benchmarks.{name}")
