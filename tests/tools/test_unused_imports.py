"""Tier-1 stand-in for ruff's ``F401`` (imported but unused).

CI's ``test`` job starts with ``ruff check src tests``; ruff is not
installed on the build box, so an unused import fails CI before pytest
starts and nothing local says so.  This is the same rule as an ``ast``
pass: a name bound by an import and never read in its module fails.
Names read only inside annotations count (quoted ones included), as do
names listed in ``__all__``; ``__init__.py`` re-exports, ``__future__``
imports and lines carrying ``# noqa: F401`` are exempt.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
NOQA = "# noqa: F401"


def imported_names(tree: ast.AST, lines: List[str]) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of every import binding F401 applies to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
        elif not isinstance(node, ast.Import):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            line = getattr(alias, "lineno", node.lineno)
            if NOQA in lines[line - 1] or NOQA in lines[node.lineno - 1]:
                continue
            yield alias.asname or alias.name.split(".")[0], line


def string_constants(node: ast.AST) -> List[str]:
    return [
        item.value
        for item in ast.walk(node)
        if isinstance(item, ast.Constant) and isinstance(item.value, str)
    ]


def referenced_names(tree: ast.AST) -> Set[str]:
    """Every name the module reads, quoted annotations and ``__all__``
    entries included."""
    names: Set[str] = set()
    quoted: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            if node.annotation is not None:
                quoted += string_constants(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                quoted += string_constants(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(string_constants(node.value))
    for text in quoted:
        try:
            expression = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        names.update(
            item.id for item in ast.walk(expression) if isinstance(item, ast.Name)
        )
    return names


def unused_imports(source: str) -> List[Tuple[str, int]]:
    tree = ast.parse(source)
    used = referenced_names(tree)
    return sorted(
        (name, line)
        for name, line in imported_names(tree, source.splitlines())
        if name not in used
    )


def test_the_rule_itself():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os",
            "import os.path as osp",
            "import numpy as np  # noqa: F401",
            "from typing import TYPE_CHECKING, List, Optional, Tuple",
            "from a import b, c as d",
            "if TYPE_CHECKING:",
            "    from x import Quoted, Unquoted, Nowhere",
            "__all__ = ['d']",
            "def f(p: List[int], q: 'Optional[Quoted]') -> Unquoted:",
            "    Tuple = 3",
            "    return osp.join(p, q)",
        ]
    )
    assert unused_imports(source) == [("Nowhere", 8), ("Tuple", 5), ("b", 6), ("os", 2)]


@pytest.mark.parametrize("top", ["src", "tests"])
def test_no_unused_imports(top):
    found = []
    for path in sorted((REPO_ROOT / top).rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, line in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(REPO_ROOT)}:{line}: {name}")
    assert not found, "imported but unused:\n" + "\n".join(found)
