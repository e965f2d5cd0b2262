"""Every documented ``python -m repro ...`` command line must parse.

The command lines in the Markdown docs and in the CI workflow's smoke
jobs are the CLI's public examples.  A flag that is renamed or dropped
would otherwise break only the CI smoke jobs; here each line goes
through ``build_parser().parse_args`` (parsing only -- nothing runs).

Extraction covers fenced code blocks (``\\`` continuations joined,
``#`` comments dropped), single-line inline code spans, and the
workflow's folded ``run: >`` blocks.  A line elided with ``…`` is a
placeholder, not an example, and is skipped; so are hidden directories.
"""

import re
import shlex
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
MARKER = "python -m repro"
INLINE = re.compile(r"`([^`\n]*python -m repro[^`\n]*)`")


def _argv(text: str) -> List[str]:
    """The arguments after ``python -m repro`` in one shell line."""
    return shlex.split(text[text.index(MARKER) + len(MARKER):], comments=True)


def _joined(lines: List[str]) -> Iterator[Tuple[int, str]]:
    """``(first line number, line)`` with ``\\`` continuations joined."""
    pending, start = "", 0
    for number, line in enumerate(lines, 1):
        if not pending:
            start = number
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield start, pending + line
        pending = ""
    if pending:
        yield start, pending


def markdown_commands(path: Path) -> Iterator[Tuple[int, str]]:
    lines = path.read_text().splitlines()
    fenced, in_fence = [], False
    for number, line in enumerate(lines, 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            fenced.append((number, line))
        else:
            for span in INLINE.findall(line):
                yield number, span
    numbers = [number for number, _ in fenced]
    for index, line in _joined([line for _, line in fenced]):
        if MARKER in line:
            yield numbers[index - 1], line


def workflow_commands(path: Path) -> Iterator[Tuple[int, str]]:
    lines = path.read_text().splitlines()
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if stripped.startswith("#"):
            for span in INLINE.findall(line):
                yield number, span
            continue
        key, _, value = stripped.partition(":")
        if key not in ("run", "- run"):
            continue
        value = value.strip()
        if value not in (">", "|"):
            if MARKER in value:
                yield number, value
            continue
        indent = len(line) - len(line.lstrip())
        block = []
        for follow in lines[number:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            block.append(follow.strip())
        if value == ">":
            block = [" ".join(block)]
        for _, command in _joined(block):
            if MARKER in command:
                yield number, command


def documented_commands() -> List[Tuple[str, List[str]]]:
    found = []
    docs = sorted(
        path
        for path in REPO_ROOT.rglob("*.md")
        if not any(part.startswith(".") for part in path.relative_to(REPO_ROOT).parts)
    )
    for path in docs:
        for number, line in markdown_commands(path):
            if "…" not in line:
                found.append((f"{path.relative_to(REPO_ROOT)}:{number}", _argv(line)))
    if WORKFLOW.exists():
        for number, line in workflow_commands(WORKFLOW):
            found.append((f"{WORKFLOW.relative_to(REPO_ROOT)}:{number}", _argv(line)))
    return found


COMMANDS = documented_commands()


def test_documented_commands_were_found():
    assert len(COMMANDS) >= 40
    assert any(where.startswith(".github") for where, _ in COMMANDS)


@pytest.mark.parametrize(
    "where,argv", COMMANDS, ids=[where for where, _ in COMMANDS]
)
def test_documented_command_parses(where, argv):
    build_parser().parse_args(argv)
