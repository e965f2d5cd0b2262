"""Every seam the end-to-end benchmark's layer tracer wraps still exists.

``benchmarks/e2e/trace.py`` names the functions it times by owner and
attribute, and ``LayerTracer.install`` looks each one up with
``vars(owner)[attr]``: a method that moved to another class, or was
renamed, raises ``KeyError`` there.  This resolves the same table the
same way, without patching anything, so a moved seam fails tier-1 too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "e2e_trace", REPO_ROOT / "benchmarks" / "e2e" / "trace.py"
)
e2e_trace = importlib.util.module_from_spec(_spec)
sys.modules["e2e_trace"] = e2e_trace
_spec.loader.exec_module(e2e_trace)


def _name(owner, attr):
    return f"{owner.__name__}.{attr}"


TARGETS = [
    pytest.param(owner, attr, id=_name(owner, attr))
    for _, owner, attrs in e2e_trace.TARGETS
    for attr in attrs
]


@pytest.mark.parametrize("owner, attr", TARGETS)
def test_target_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner), f"{_name(owner, attr)} moved: the tracer cannot wrap it"


@pytest.mark.parametrize(
    "module, attr, source",
    [pytest.param(*alias, id=_name(alias[0], alias[1])) for alias in e2e_trace.ALIASES],
)
def test_alias_points_at_a_wrapped_target(module, attr, source):
    assert vars(module)[attr] is vars(source)[attr]
    assert any(
        owner is source and attr in attrs for _, owner, attrs in e2e_trace.TARGETS
    )
