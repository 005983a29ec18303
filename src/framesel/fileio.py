"""Canonical JSON serialization, atomic file writes and the UTF-8 readers.

Every JSON artifact the package emits goes through :func:`canonical_json`
so that identical inputs always produce byte-identical files: keys keep
their insertion order, there is no whitespace variation, and the file ends
with a single newline.  Writes land in a temporary file in the target
directory and are renamed into place, so batch runs never observe a
half-written artifact.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from pathlib import Path
from typing import Any

from .errors import FormatError

# A \uD800-\uDFFF escape, which json.loads turns into a lone surrogate
# unless it pairs with its neighbour.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def canonical_json(doc: Any) -> str:
    """Serialize ``doc`` to the package's canonical JSON form."""
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"), allow_nan=False) + "\n"


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + rename."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_json(path: str | Path, doc: Any) -> None:
    atomic_write_bytes(path, canonical_json(doc).encode("utf-8"))


def read_text(path: str | Path) -> str:
    """Read a UTF-8 text file with its line endings as stored."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc})") from exc


def read_json(path: str | Path) -> dict:
    """Parse a UTF-8 JSON object (every framesel document is one), else :class:`FormatError`."""
    text = read_text(path)
    try:
        doc = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except RecursionError:
        raise FormatError(f"{path}: not valid JSON (nested too deeply)") from None
    except ValueError as exc:  # JSONDecodeError, a lone surrogate, or an integer too long to parse
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: not a JSON object")
    return doc


def is_finite_number(value) -> bool:
    """A JSON number (not a bool) that is representable and finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        return False


def require_key(doc: dict, key: str, kind: type | tuple[type, ...], where: str) -> Any:
    """Fetch ``doc[key]`` checking its JSON type, raising :class:`FormatError`.

    ``kind=float`` accepts any JSON number and returns it as a finite float.
    """
    if key not in doc:
        raise FormatError(f"{where}: missing required key {key!r}")
    value = doc[key]
    if kind is float:
        if not is_finite_number(value):
            raise FormatError(f"{where}: key {key!r} must be a finite number")
        return float(value)
    if (isinstance(value, bool) and kind is not bool) or not isinstance(value, kind):
        raise FormatError(f"{where}: key {key!r} has wrong type {type(value).__name__}")
    return value
