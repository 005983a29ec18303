"""Source-structure guards: input text is decoded, and JSON kinds checked, in ``fileio`` alone."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "framesel"


def decoding_sites(path):
    """Lines of ``path`` that call ``json.loads`` or ``.read_text(``, or catch ``UnicodeDecodeError``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr == "read_text" or (
                func.attr == "loads" and isinstance(func.value, ast.Name) and func.value.id == "json"
            ):
                yield node.lineno
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(c, ast.Name) and c.id == "UnicodeDecodeError" for c in caught):
                yield node.lineno


def test_only_fileio_decodes_input():
    modules = sorted(SOURCE.glob("*.py"))
    assert SOURCE / "fileio.py" in modules
    # The guard sees fileio's own json.loads and UnicodeDecodeError handler.
    assert list(decoding_sites(SOURCE / "fileio.py"))
    offenders = [f"{path.name}:{line}" for path in modules if path.name != "fileio.py" for line in decoding_sites(path)]
    assert offenders == []


def reader_kind_checks(path):
    """Lines of ``path`` where a ``read_*`` or ``load_*`` function calls ``isinstance``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and node.name.startswith(("read_", "load_")):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "isinstance":
                    yield call.lineno


def test_only_fileio_checks_json_kinds():
    modules = sorted(SOURCE.glob("*.py"))
    # The guard sees read_json's object check.
    assert list(reader_kind_checks(SOURCE / "fileio.py"))
    offenders = [f"{path.name}:{line}" for path in modules if path.name != "fileio.py" for line in reader_kind_checks(path)]
    assert offenders == []
