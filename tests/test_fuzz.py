"""Fuzzed CLI inputs: every run succeeds or prints one error line.

File examples rewrite valid inputs (a manifest and its three `.fsel` files
for `select`; the TSV, CSV, model and routing files of `train-classifier`,
`fit-routing` and `route`), then truncate, extend or overwrite bytes, header
fields or JSON keys.  Flag examples pass arbitrary text to every numeric
flag.  Each run goes through ``conftest.run_checked``, whose 10 s alarm
fails a hang instead of stalling the suite.  An error exit that fuzzing
finds becomes a row of ``test_error_lines.py``, which pins its whole line,
and leaves this file.  Found inputs that must exit 0 stay here.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_checked, unit_rows, write_fixture_manifest, write_routing_inputs

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
    large cap over a long video builds a large pool, and a large trial
    count runs as many instances.  A case below covers a huge cap over a
    short video, and a row of ``test_error_lines.py`` a pool past the
    embedding file's row limit.
    """
    junk = st.text(max_size=6)
    if sizes_work:
        junk = junk.filter(_not_an_int)
    return st.one_of(numbers.map(str), st.sampled_from(SPECIAL_NUMBERS), junk)


def flag(name, texts):
    return texts.map(lambda text: f"{name}={text}")


floats = flag_texts(st.floats() | st.integers() | st.just(int(HUGE)))
ints = flag_texts(st.integers() | st.just(int(HUGE)))
trials = flag_texts(st.integers(-3, 64), True)
# (command, its numeric flags)
flag_runs = st.one_of(
    st.tuples(st.just("train-classifier"), st.tuples(flag("--learning-rate", floats))),
    st.tuples(st.just("train-classifier"), st.tuples(flag("--epochs", ints))),
    st.tuples(st.just("select"), st.tuples(flag("--k", ints))),
    st.tuples(st.just("select"), st.tuples(flag("--lambda", floats))),
    st.tuples(st.just("compare"), st.tuples(flag("--k", ints))),
    st.tuples(st.just("compare"), st.tuples(flag("--lambda", floats))),
    st.tuples(st.just("route"), st.tuples(flag("--lambda", floats))),
    st.tuples(st.just("oracle"), st.tuples(flag("--seed", ints))),
    st.tuples(st.just("oracle"), st.tuples(flag("--k", ints))),
    st.tuples(st.just("oracle"), st.tuples(flag("--n", ints))),
    st.tuples(st.just("oracle"), st.tuples(flag("--lambda", floats))),
    st.tuples(st.just("oracle"), st.tuples(flag("--trials", trials))),
    st.tuples(st.just("props"), st.tuples(flag("--seed", ints))),
    st.tuples(st.just("props"), st.tuples(flag("--trials", trials))),
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


@settings(max_examples=500, deadline=None)
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
        "compare": ["--manifest", directory / MANIFEST, "--preset", "relevance_oriented"],
        "route": ["--routing", routing_dir / "routing.json", "--type", "count"],
        "pool": [],
        # One instance of at most three candidates.  A drawn --n is at most
        # the exact search's 20, under the default budget of at most 4, and
        # a drawn --trials at most 64, so no drawn value makes the work large.
        "oracle": ["--trials", "1", "--n", "3"],
        "props": ["--trials", "1"],
    }[command]
    run_checked([command, *inputs, *flags, "--out", directory / "out.json", "--quiet"])


# Found inputs that must exit 0, each an argv over ``conftest.cli_inputs``.
# All but pool-cap-huge once ended in a traceback or a refused valid input.
EXIT_ZERO = {
    "learning-rate-huge": ["train-classifier", "--data", "{tmp}/train.tsv", "--learning-rate", "1.7e308"],
    # a float64 spacing grid rounded its last entry past duration - 1
    "pool-duration-past-int64": ["pool", "--fps", "1e-200", "--frames", "1", "--cap", "3"],
    "pool-cap-huge": ["pool", "--fps", "1", "--frames", "5", "--cap", HUGE],
    # numpy drew the instance's budget in int64 before clamping it to n
    "oracle-budget-past-int64": ["oracle", "--trials", "1", "--k", "100000000000000000000"],
}


@pytest.mark.parametrize("case", sorted(EXIT_ZERO))
def test_reported_inputs_exit_cleanly(case, cli_inputs):
    argv = [arg.replace("{tmp}", str(cli_inputs)) for arg in EXIT_ZERO[case]]
    assert run_checked([*argv, "--out", cli_inputs / "out.json", "--quiet"]) == (0, "", "")
