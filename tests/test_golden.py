"""The golden corpus: every run in ``golden.json`` replayed, its exit code and output digests compared.

This is where "outputs stay fixed" is checked for the success path: stdout
and ``--out`` bytes of ``select`` and ``compare`` under the four presets,
four budgets and four flag sets on three scene-walk pools, the routed
preset, and every other command (see ``golden.py``).  The runs replay once
per session, in-process through ``conftest.run_checked``.  Digests of runs
that do float arithmetic are checked only under the BLAS key they were
pinned for; on another BLAS build or thread count that test is skipped as
not checked.  ``python tests/golden.py --repin`` rewrites the pins.
"""

import json

import pytest

import golden

TEXT = golden.PATH.read_text(encoding="utf-8")
CORPUS = json.loads(TEXT)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    golden.write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def replayed(inputs):
    return {"blas": golden.blas_key(), "runs": golden.replay(inputs, [entry["argv"] for entry in CORPUS["runs"]])}


def moved(replayed, float_digests):
    return [golden.describe(*pair) for pair in golden.differences(CORPUS["runs"], replayed["runs"], float_digests)]


def test_the_corpus_is_canonical_json():
    assert TEXT == golden.dumps(CORPUS)


def test_argvs_are_distinct():
    argvs = [tuple(entry["argv"]) for entry in CORPUS["runs"]]
    assert sorted({argv for argv in argvs if argvs.count(argv) > 1}) == []


def test_the_corpus_runs_every_argv_of_the_builder():
    # A run added to or dropped from ``corpus_argvs`` needs a re-pin.
    assert [entry["argv"] for entry in CORPUS["runs"]] == golden.corpus_argvs()


def test_every_named_input_is_written(inputs):
    written = {path.relative_to(inputs).as_posix() for path in inputs.rglob("*") if path.is_file()}
    named = {name for entry in CORPUS["runs"] for name in golden.named_inputs(entry["argv"])}
    assert sorted(named - written) == []


def test_exit_codes(replayed):
    assert [
        (entry["argv"], entry["code"], run["code"])
        for entry, run in zip(CORPUS["runs"], replayed["runs"])
        if entry["code"] != run["code"]
    ] == []


def test_blas_free_digests(replayed):
    assert moved(replayed, float_digests=False) == []


def test_float_bearing_digests(replayed):
    if replayed["blas"] != CORPUS["blas"]:
        pytest.skip(f"not checked: float-bearing digests are pinned for BLAS {CORPUS['blas']}, not {replayed['blas']}")
    assert moved(replayed, float_digests=True) == []
