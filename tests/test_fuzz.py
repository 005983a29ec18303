"""Fuzzed `select` inputs: every run succeeds or prints one error line.

Each example rewrites a valid manifest and its three `.fsel` files, then
truncates, extends or overwrites bytes, header fields or manifest keys, and
runs the command in-process.  Warnings are raised as errors, because a
printed warning would be a second stderr line.
"""

import contextlib
import io
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_rows, write_fixture_manifest
from framesel.cli import main as cli_main

FSEL_FILES = ("relevance.fsel", "semantic.fsel", "query.fsel")
MANIFEST = "manifest.json"
MANIFEST_KEYS = (
    "video_id",
    "fps",
    "total_frames",
    "cap",
    "seconds",
    "relevance_embeddings",
    "semantic_embeddings",
    "query_embedding",
)
ERROR_LINE = re.compile(r"error:([1-4]):[^\n]*\n")

PATH_KEYS = MANIFEST_KEYS[5:]
# Paths that random text rarely hits: directories, a swapped file, NUL.
PATH_TEXTS = ("", ".", "/", "..", "semantic.fsel", "query.fsel", "missing.fsel", "a\0b")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
byte_edits = (
    st.tuples(st.just("truncate"), st.integers(0, 200)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=32)),
    st.tuples(st.just("overwrite"), st.integers(0, 200), st.binary(min_size=1, max_size=8)),
)
fsel_edit = st.one_of(
    *byte_edits,
    st.tuples(st.just("header"), st.sampled_from((0, 4, 8, 12)), st.integers(0, 2**32 - 1)),
)
manifest_edit = st.one_of(
    *byte_edits,
    st.tuples(st.just("delete"), st.sampled_from(MANIFEST_KEYS)),
    st.tuples(st.just("set"), st.sampled_from(MANIFEST_KEYS), json_values),
    st.tuples(st.just("set"), st.sampled_from(PATH_KEYS), st.sampled_from(PATH_TEXTS)),
)
edits = st.lists(
    st.tuples(st.sampled_from(FSEL_FILES), fsel_edit) | st.tuples(st.just(MANIFEST), manifest_edit),
    min_size=1,
    max_size=3,
)


def apply_edit(blob: bytes, edit) -> bytes:
    kind = edit[0]
    if kind == "truncate":
        return blob[: edit[1]]
    if kind == "extend":
        return blob + edit[1]
    if kind == "overwrite":
        at = min(edit[1], len(blob))
        return blob[:at] + edit[2] + blob[at + len(edit[2]) :]
    if kind == "header":
        at = edit[1]
        return blob[:at] + struct.pack("<I", edit[2]) + blob[at + 4 :]
    try:
        doc = json.loads(blob)
    except ValueError:  # an earlier edit broke the JSON; keep it broken
        return blob
    if not isinstance(doc, dict):
        return blob
    if kind == "delete":
        doc.pop(edit[1], None)
    else:
        doc[edit[1]] = edit[2]
    return json.dumps(doc).encode("utf-8")


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """A valid six-candidate instance: (directory, original bytes by file)."""
    directory = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    write_fixture_manifest(directory, unit_rows(rng, 6, 4), unit_rows(rng, 6, 3), unit_rows(rng, 1, 4))
    return directory, {name: (directory / name).read_bytes() for name in (*FSEL_FILES, MANIFEST)}


@settings(max_examples=300, deadline=None)
@given(edits)
def test_select_exits_cleanly_on_mutated_inputs(instance, changes):
    directory, originals = instance
    blobs = dict(originals)
    for name, edit in changes:
        blobs[name] = apply_edit(blobs[name], edit)
    for name, blob in blobs.items():
        (directory / name).write_bytes(blob)
    argv = ["select", "--manifest", directory / MANIFEST, "--preset", "coverage_oriented", "--k", "3"]
    argv += ["--out", directory / "selection.json", "--quiet"]
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli_main([str(a) for a in argv])
    line = ERROR_LINE.fullmatch(stderr.getvalue())
    if code == 0:
        assert stderr.getvalue() == ""
    else:
        assert line is not None and int(line.group(1)) == code, stderr.getvalue()
