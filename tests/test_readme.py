"""The library names and CLI examples README shows resolve on the installed package."""

import re
import shlex
from pathlib import Path

import framesel as fs
from framesel.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(start: str, end: str) -> str:
    head = README.index(start)
    return README[head : README.index(end, head)]


def test_library_screen_names_resolve():
    block = _section("## Library in one screen", "\n```\n")
    names = set(re.findall(r"\bfs\.(\w+)", block))
    assert {"select", "marginal_gain", "objective_value"} <= names
    assert sorted(name for name in names if not hasattr(fs, name)) == []


def test_verification_helpers_resolve():
    paragraph = _section("Verification helpers", "\n\n")
    names = set(re.findall(r"`(\w+)`", paragraph))
    assert {"brute_force_optimum", "property_suite"} <= names
    assert sorted(name for name in names if not hasattr(fs, name)) == []


def test_cli_examples_parse():
    block = _section("## CLI", "\n```\n").replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("framesel ")]
    assert len(commands) == 9
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
