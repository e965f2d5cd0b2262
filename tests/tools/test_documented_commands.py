"""Every documented ``python -m repro ...`` command line must parse.

The command lines in the Markdown docs and in the CI workflow's smoke
jobs are the CLI's public examples.  A flag that is renamed or dropped
would otherwise break only the CI smoke jobs; here each line goes
through ``build_parser().parse_args`` (parsing only -- nothing runs).

Extraction covers fenced code blocks (``\\`` continuations joined,
``#`` comments dropped), single-line inline code spans, and the
workflow's folded ``run: >`` blocks.  A line elided with ``…`` is a
placeholder, not an example, and is skipped; so are hidden directories.
Each case is named by its file and its argv, not by its line, so an edit
above a command leaves its id alone: ``DESIGN.md@1a2b3c::run --seed 7``.
The label before ``::`` (file name, a digest of the argv, ``#n`` for a
verbatim repeat in one file) tells the cases apart on its own and is
short, so a listing that cuts each test name at 100 characters still
shows every case under a name of its own.
"""

import hashlib
import re
import shlex
from collections import Counter
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


def _keyed(path: Path, lines: Iterator[Tuple[int, str]]) -> Iterator[Tuple[str, List[str]]]:
    """``(id, argv)`` per command of ``path``: the id is the file and the
    argv, so editing the text around a command does not rename it; a
    command repeated verbatim in one file gets a ``#n`` suffix on its
    label from its second occurrence on."""
    seen: Counter = Counter()
    for _, line in lines:
        if "…" in line:
            continue
        argv = _argv(line)
        joined = " ".join(argv)
        label = f"{path.name}@{hashlib.sha1(joined.encode()).hexdigest()[:6]}"
        seen[label] += 1
        if seen[label] > 1:
            label += f"#{seen[label]}"
        yield f"{label}::{joined}", argv


def documented_commands() -> List[Tuple[str, List[str]]]:
    found = []
    docs = sorted(
        path
        for path in REPO_ROOT.rglob("*.md")
        if not any(part.startswith(".") for part in path.relative_to(REPO_ROOT).parts)
    )
    for path in docs:
        found.extend(_keyed(path, markdown_commands(path)))
    if WORKFLOW.exists():
        found.extend(_keyed(WORKFLOW, workflow_commands(WORKFLOW)))
    return found


COMMANDS = documented_commands()


def test_documented_commands_were_found():
    assert len(COMMANDS) >= 40
    assert any(where.startswith(f"{WORKFLOW.name}@") for where, _ in COMMANDS)
    labels = [where.partition("::")[0] for where, _ in COMMANDS]
    assert len(set(labels)) == len(COMMANDS)
    # Short enough that a test name cut at 100 characters keeps the label.
    assert max(map(len, labels)) <= 28


@pytest.mark.parametrize(
    "where,argv", COMMANDS, ids=[where for where, _ in COMMANDS]
)
def test_documented_command_parses(where, argv):
    build_parser().parse_args(argv)
