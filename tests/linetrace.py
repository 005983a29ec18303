"""Opt-in pytest plugin: list the statements of ``src/framesel/*.py`` that no test ran.

Run as ``PYTHONPATH=src:tests python -m pytest -q -p linetrace tests perfbench``.
At the end of the run it prints each statement inside a function body,
docstrings excluded, that never executed in the pytest process.  Tests that
spawn ``python -m framesel.cli`` and the demos are not traced, so a listed
statement may still run in a subprocess.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "framesel"
_ran: set[tuple[str, int]] = set()
_ours: dict[str, bool] = {}


def statements(source: str) -> set[int]:
    """Line numbers of the statements inside function bodies, docstrings excluded."""
    funcs = [n for n in ast.walk(ast.parse(source)) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docs = {id(f.body[0]) for f in funcs if ast.get_docstring(f, clean=False) is not None}
    return {n.lineno for f in funcs for s in f.body for n in ast.walk(s) if isinstance(n, ast.stmt) and id(n) not in docs}


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        _ours[name] = Path(name).resolve().parent == SRC
    return _line if _ours[name] else None


def pytest_sessionstart(session):
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    ran = {(Path(name).resolve(), lineno) for name, lineno in _ran}
    missed = [
        f"{p.relative_to(SRC.parents[1])}:{i}"
        for p in sorted(SRC.glob("*.py"))
        for i in sorted(statements(p.read_text(encoding="utf-8")))
        if (p, i) not in ran
    ]
    terminalreporter.write_line(f"linetrace: {len(missed)} statements never ran in-process")
    for entry in missed:
        terminalreporter.write_line(entry)
