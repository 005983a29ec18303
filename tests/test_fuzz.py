"""Fuzzed CLI inputs: every run succeeds or prints one error line.

File examples rewrite valid inputs (a manifest and its three `.fsel` files
for `select`; the TSV, CSV, model and routing files of `train-classifier`,
`fit-routing` and `route`), then truncate, extend or overwrite bytes, header
fields or JSON keys.  Flag examples pass arbitrary text to every numeric
flag.  Each run is in-process under an alarm, so a hang fails the test
instead of stalling the suite.  Warnings are raised as errors, because a
printed warning would be a second stderr line.
"""

import json
import re
import signal
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HEADER, run_cli, unit_rows, write_fixture_manifest, write_routing_inputs

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
MODEL_KEYS = ("types", "vocabulary", "weights", "featurization")
ROUTING_KEYS = ("mapping", "provenance")
ERROR_LINE = re.compile(r"error:([1-4]):[^\n]*\n")
ALARM_SECONDS = 10
HUGE = "1" + "0" * 400

PATH_KEYS = MANIFEST_KEYS[5:]
# Paths that random text rarely hits: directories, a swapped file, NUL.
PATH_TEXTS = ("", ".", "/", "..", "semantic.fsel", "query.fsel", "missing.fsel", "a\0b")
# st.characters() includes lone surrogates, which json.dumps escapes.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(st.characters(), max_size=8),
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


def json_edit(keys):
    return st.one_of(
        *byte_edits,
        st.tuples(st.just("delete"), st.sampled_from(keys)),
        st.tuples(st.just("set"), st.sampled_from(keys), json_values),
        st.tuples(st.just("item"), st.sampled_from(keys), st.integers(0, 50), json_values),
    )


# Text lines in the TSV and CSV formats: tabs, commas, quotes and numbers.
table_text = st.text(st.sampled_from("ab\t,\"\r\n.0157e-") | st.characters(codec="utf-8"), max_size=40)
table_edit = st.one_of(*byte_edits, st.tuples(st.just("extend"), table_text.map(str.encode)))
routing_edits = st.lists(
    st.tuples(st.just("train.tsv"), table_edit)
    | st.tuples(st.just("acc.csv"), table_edit)
    | st.tuples(st.just("model.json"), json_edit(MODEL_KEYS))
    | st.tuples(st.just("routing.json"), json_edit(ROUTING_KEYS)),
    min_size=1,
    max_size=3,
)


SPECIAL_NUMBERS = ("nan", "inf", "-inf", "0", "-0", "-1", "1e-300", "1e308", "0x10", "1_0", " 3", "")


def _not_an_int(text) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


def flag_texts(numbers, sizes_work=False):
    """Text for a numeric flag: the given numbers, extreme values and junk.

    A flag that sizes the work gets no junk that parses as an integer: a
    large cap over a long video builds a large pool.  Explicit cases below
    cover a huge cap over a short video and a pool past the embedding
    file's row limit.
    """
    junk = st.text(max_size=6)
    if sizes_work:
        junk = junk.filter(_not_an_int)
    return st.one_of(numbers.map(str), st.sampled_from(SPECIAL_NUMBERS), junk)


def flag(name, texts):
    return texts.map(lambda text: f"{name}={text}")


floats = flag_texts(st.floats() | st.integers() | st.just(int(HUGE)))
ints = flag_texts(st.integers() | st.just(int(HUGE)))
# (command, its numeric flags)
flag_runs = st.one_of(
    st.tuples(st.just("train-classifier"), st.tuples(flag("--learning-rate", floats))),
    st.tuples(st.just("train-classifier"), st.tuples(flag("--epochs", ints))),
    st.tuples(st.just("select"), st.tuples(flag("--k", ints))),
    st.tuples(st.just("select"), st.tuples(flag("--lambda", floats))),
    st.tuples(st.just("route"), st.tuples(flag("--lambda", floats))),
    st.tuples(
        st.just("pool"),
        st.tuples(flag("--fps", floats), flag("--frames", ints), flag("--cap", flag_texts(st.integers(-3, 64), True))),
    ),
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
    elif kind == "set":
        doc[edit[1]] = edit[2]
    else:  # "item": replace one entry of a list or object value
        inner = doc.get(edit[1])
        if isinstance(inner, list) and inner:
            inner[edit[2] % len(inner)] = edit[3]
        elif isinstance(inner, dict) and inner:
            inner[list(inner)[edit[2] % len(inner)]] = edit[3]
    return json.dumps(doc).encode("utf-8")


def _hang(signum, frame):
    pytest.fail(f"no exit within {ALARM_SECONDS} s")


def run_checked(argv) -> int:
    """Run the CLI; assert exit 0 with a silent stderr, or one error line."""
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(ALARM_SECONDS)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, stderr = run_cli(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    line = ERROR_LINE.fullmatch(stderr)
    if code == 0:
        assert stderr == ""
    else:
        assert line is not None and int(line.group(1)) == code, stderr
    return code


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """A valid six-candidate instance: (directory, original bytes by file)."""
    directory = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    write_fixture_manifest(directory, unit_rows(rng, 6, 4), unit_rows(rng, 6, 3), unit_rows(rng, 1, 4))
    return directory, {name: (directory / name).read_bytes() for name in (*FSEL_FILES, MANIFEST)}


@pytest.fixture(scope="module")
def routing_instance(tmp_path_factory):
    """Valid train-classifier, fit-routing and route inputs: (directory, original bytes by file)."""
    directory = tmp_path_factory.mktemp("fuzz-routing")
    write_routing_inputs(directory)
    names = ("train.tsv", "acc.csv", "model.json", "routing.json")
    return directory, {name: (directory / name).read_bytes() for name in names}


def write_blobs(directory, originals, changes):
    blobs = dict(originals)
    for name, edit in changes:
        blobs[name] = apply_edit(blobs[name], edit)
    for name, blob in blobs.items():
        (directory / name).write_bytes(blob)


@settings(max_examples=300, deadline=None)
@given(edits)
def test_select_exits_cleanly_on_mutated_inputs(instance, changes):
    directory, originals = instance
    write_blobs(directory, originals, changes)
    argv = ["select", "--manifest", directory / MANIFEST, "--preset", "coverage_oriented", "--k", "3"]
    run_checked(argv + ["--out", directory / "selection.json", "--quiet"])


@settings(max_examples=200, deadline=None)
@given(routing_edits, st.text(st.characters(), max_size=20))
def test_routing_commands_exit_cleanly_on_mutated_inputs(routing_instance, changes, question):
    directory, originals = routing_instance
    write_blobs(directory, originals, changes)
    out = ["--out", directory / "out.json", "--quiet"]
    run_checked(["train-classifier", "--data", directory / "train.tsv", "--epochs", "3", *out])
    run_checked(["fit-routing", "--accuracy", directory / "acc.csv", *out])
    routing = ["route", "--routing", directory / "routing.json"]
    run_checked([*routing, "--model", directory / "model.json", "--question", question, *out])
    run_checked([*routing, "--type", question, *out])


@settings(max_examples=300, deadline=None)
@given(flag_runs)
def test_numeric_flags_exit_cleanly(instance, routing_instance, run):
    directory, originals = instance
    write_blobs(directory, originals, [])
    routing_dir, routing_originals = routing_instance
    write_blobs(routing_dir, routing_originals, [])
    command, flags = run
    inputs = {
        "train-classifier": ["--data", routing_dir / "train.tsv"],
        "select": ["--manifest", directory / MANIFEST, "--preset", "relevance_oriented"],
        "route": ["--routing", routing_dir / "routing.json", "--type", "count"],
        "pool": [],
    }[command]
    run_checked([command, *inputs, *flags, "--out", directory / "out.json", "--quiet"])


def _manifest_with(directory, *pairs):
    """Write each JSON literal of ``pairs`` (key, literal, key, ...) under its key."""
    doc = json.loads((directory / MANIFEST).read_text(encoding="utf-8"))
    literals = dict(zip(pairs[::2], pairs[1::2]))
    doc.update((key, f"PLACEHOLDER-{key}") for key in literals)
    text = json.dumps(doc)
    for key, literal in literals.items():
        text = text.replace(f'"PLACEHOLDER-{key}"', literal)
    (directory / MANIFEST).write_text(text, encoding="utf-8")


REPORTED = {
    # (command, flags, expected exit code); all but pool-cap-huge once
    # ended in a traceback, a hang or a refused valid input.  A select
    # case's flags alternate manifest keys and the JSON literals written
    # there.
    "learning-rate-nan": ("train", ["--learning-rate", "nan"], 4),
    "learning-rate-inf": ("train", ["--learning-rate", "inf"], 4),
    "learning-rate-huge": ("train", ["--learning-rate", "1.7e308"], 0),
    "deep-routing-json": ("route", [], 2),
    "manifest-fps-huge": ("select", ["fps", HUGE], 2),
    "manifest-frames-huge": ("select", ["total_frames", HUGE], 2),
    "manifest-integer-too-long": ("select", ["cap", "1" * 5000], 2),
    # the pool of seconds 0 .. 10**12 - 1 was built before its length was checked
    "manifest-geometry-huge": ("select", ["total_frames", "1000000000000", "cap", "1000000000000"], 2),
    "pool-frames-huge": ("pool", ["--fps", "2", "--frames", HUGE], 4),
    "pool-fps-tiny": ("pool", ["--fps", "1e-300", "--frames", "10000000000"], 4),
    # a float64 spacing grid rounded its last entry past duration - 1
    "pool-duration-past-int64": ("pool", ["--fps", "1e-200", "--frames", "1", "--cap", "3"], 0),
    "pool-cap-huge": ("pool", ["--fps", "1", "--frames", "5", "--cap", HUGE], 0),
    # a MemoryError building 10**12 seconds no embedding file can match
    "pool-past-row-limit": ("pool", ["--fps", "1", "--frames", "1000000000000", "--cap", "1000000000000"], 4),
    "long-csv-field": ("fit-routing", [], 2),
    # undecodable argv bytes arrive as lone surrogates
    "argv-lone-surrogate": ("pool", ["--fps", "1", "--frames", "3", "--video-id", "\udcff"], 4),
    "json-lone-surrogate": ("select", ["video_id", '"\\udc80"'], 2),
}


@pytest.mark.parametrize("case", sorted(REPORTED))
def test_reported_inputs_exit_cleanly(case, tmp_path):
    command, flags, expected = REPORTED[case]
    if command == "train":
        write_routing_inputs(tmp_path)
        argv = ["train-classifier", "--data", tmp_path / "train.tsv", *flags]
    elif command == "route":
        (tmp_path / "routing.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        argv = ["route", "--routing", tmp_path / "routing.json", "--type", "count"]
    elif command == "select":
        rng = np.random.default_rng(5)
        write_fixture_manifest(tmp_path, unit_rows(rng, 6, 4), unit_rows(rng, 6, 3), unit_rows(rng, 1, 4))
        _manifest_with(tmp_path, *flags)
        argv = ["select", "--manifest", tmp_path / MANIFEST, "--preset", "coverage_oriented", "--k", "3"]
    elif command == "fit-routing":
        row = "x" * 140_000 + ",0.5,0.9,0.2,0.1\n"
        (tmp_path / "acc.csv").write_text(HEADER + row, encoding="utf-8")
        argv = ["fit-routing", "--accuracy", tmp_path / "acc.csv"]
    else:
        argv = ["pool", *flags]
    assert run_checked([*argv, "--out", tmp_path / "out.json", "--quiet"]) == expected
