"""A pytest plugin that fails the session when a ``raise`` in src/srb no test runs.

Opt in by name, with src and tests on the import path::

    PYTHONPATH=src:tests python -m pytest -q -p trace_raises

While the session runs, a ``sys.settrace`` tracer records the lines executed
in srb's modules (tracing stops at every other frame).  At the end the
terminal summary lists each ``raise`` statement none of whose lines ran, as
``path:line: source``, with their count, and the session fails if there is
any.  Such a refusal is either reached by no input, and can go, or wants a
test that pins its type and message.  ``raise NotImplementedError`` marks an
abstract method (``Field``'s), which no concrete object runs, so it is not
counted.  It needs no package beyond pytest; expect the suite to run several
times slower while it traces.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

import srb

_SRC = Path(srb.__file__).resolve().parent
_executed: dict[str, set[int]] = {}
_missed: list[tuple[Path, int, int]] = []


def _raises() -> list[tuple[Path, int, int]]:
    """(path, first line, last line) of every raise statement in srb but the abstract ones."""
    found = []
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and ast.unparse(node) != "raise NotImplementedError":
                found.append((path, node.lineno, node.end_lineno))
    return found


def _trace(frame, event, arg):
    lines = _executed.get(frame.f_code.co_filename)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local(frame, event, arg)


def pytest_configure(config):
    for path in _SRC.glob("*.py"):
        _executed[str(path)] = set()
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    _missed[:] = [(path, first, last) for path, first, last in _raises()
                  if not _executed[str(path)].intersection(range(first, last + 1))]
    if _missed and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("raise statements no test executed")
    for path, first, _ in _missed:
        source = path.read_text().splitlines()[first - 1].strip()
        terminalreporter.write_line(f"{path.relative_to(_SRC.parent.parent)}:{first}: {source}")
    verdict = ": the session fails" if _missed else ""
    terminalreporter.write_line(f"{len(_missed)} of {len(_raises())} raise statements in src/srb{verdict}")
