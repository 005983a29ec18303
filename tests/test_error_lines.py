"""The exact error line and exit code of each input rule, through in-process ``cli.main``.

This is the one place where a CLI error line is checked, and where a file
reader's rule is pinned; every subcommand and every input file has at least
one row.  An error exit that ``test_fuzz.py`` finds becomes a row here too.

Every case starts from the same seeded, valid inputs, ``conftest.cli_inputs``:
a three-candidate embedding manifest, a training TSV, the model trained on
it, an accuracy CSV and the routing table fitted from it.  A case edits one
file, runs one command through ``conftest.run_checked``, whose 10 s alarm
fails a hang, and pins its whole stderr line, with the directory written as
``{tmp}``.
"""

import argparse
import json
import re

import numpy as np
import pytest

import framesel as fs
from framesel import cli
from conftest import ACCURACY, HEADER, TRAINING, run_checked

FULL_ROW = dict.fromkeys(fs.PRESET_ORDER, 0.5)
MISSING_CELL = {"relevance_only": 0.4, "relevance_oriented": 0.7, "coverage_oriented": 0.2}
DELETE = object()

SELECT = ["select", "--manifest", "{tmp}/manifest.json", "--preset", "relevance_only", "--k", "1"]
ROUTE_TYPE = ["route", "--routing", "{tmp}/routing.json", "--type", "count"]
ROUTE_QUESTION = ["route", "--routing", "{tmp}/routing.json", "--model", "{tmp}/model.json", "--question", "how many"]
FIT = ["fit-routing", "--accuracy", "{tmp}/acc.csv"]
TRAIN = ["train-classifier", "--data", "{tmp}/train.tsv"]


def fsel(rows, dim=2, version=1, magic=b"FSEL", trim=0):
    """Bytes of an embedding file holding ``rows`` (a list of ``dim``-vectors)."""
    payload = np.asarray(rows, dtype="<f4").tobytes()
    header = magic + np.array([version, len(rows), dim], dtype="<u4").tobytes()
    return (header + payload)[: len(header) + len(payload) - trim]


# (id, edits, argv, expected stderr line).  An edit is (file, keys, value): it
# sets (or, with DELETE, removes) the value at ``keys`` in a JSON file, or,
# with ``keys=None``, replaces the whole file with ``value`` (str or bytes).
CASES = [
    ("manifest-not-json", [("manifest.json", None, "{")], SELECT,
     "error:2:{tmp}/manifest.json: not valid JSON "
     "(Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
    ("manifest-array", [("manifest.json", None, "[]")], SELECT,
     "error:2:{tmp}/manifest.json: not a JSON object"),
    ("manifest-missing-key", [("manifest.json", ("fps",), DELETE)], SELECT,
     "error:2:{tmp}/manifest.json: missing required key 'fps'"),
    ("manifest-missing-embedding-path", [("manifest.json", ("relevance_embeddings",), DELETE)], SELECT,
     "error:2:{tmp}/manifest.json: missing required key 'relevance_embeddings'"),
    ("manifest-nul-path", [("manifest.json", ("semantic_embeddings",), "semantic\0.fsel")], SELECT,
     "error:2:{tmp}/manifest.json: key 'semantic_embeddings' holds a NUL character"),
    # true == 1, so only the kind rule tells it from the second it stands for.
    ("manifest-bool-second", [("manifest.json", ("seconds", 1), True)], SELECT,
     "error:2:{tmp}/manifest.json: seconds must be integers"),
    ("manifest-short-seconds", [("manifest.json", ("seconds",), [0, 1])], SELECT,
     "error:2:{tmp}/manifest.json: seconds lists 2 candidates where fps, total_frames and cap give 3"),
    ("manifest-other-seconds", [("manifest.json", ("seconds",), [0, 2, 1])], SELECT,
     "error:2:{tmp}/manifest.json: seconds differ from the pool that fps, total_frames and cap define"),
    # The length is checked first, so a pool of 10**12 seconds is never built.
    ("manifest-huge-geometry", [("manifest.json", ("total_frames",), 10**12), ("manifest.json", ("cap",), 10**12)],
     SELECT, "error:2:{tmp}/manifest.json: seconds lists 3 candidates where fps, total_frames and cap give 1000000000000"),
    ("manifest-fps-huge", [("manifest.json", ("fps",), 10**400)], SELECT,
     "error:2:{tmp}/manifest.json: key 'fps' must be a finite number"),
    ("manifest-frames-huge", [("manifest.json", ("total_frames",), 10**400)], SELECT,
     "error:2:{tmp}/manifest.json: total_frames / fps must be a finite number of seconds, got fps 1.0"),
    ("manifest-integer-too-long", [("manifest.json", None, '{"cap": ' + "1" * 5000 + "}")], SELECT,
     "error:2:{tmp}/manifest.json: not valid JSON (Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit)"),
    ("json-lone-surrogate", [("manifest.json", ("video_id",), "\udc80")], SELECT,
     "error:2:{tmp}/manifest.json: not valid JSON (lone surrogate '\\udc80' in a string)"),
    # Compact separators, unlike apply_edit's json.dumps: the line must not hang on the file's spacing.
    ("json-lone-surrogate-compact", [("manifest.json", None, '{"a":1,"video_id":"\\udc80"}')], SELECT,
     "error:2:{tmp}/manifest.json: not valid JSON (lone surrogate '\\udc80' in a string)"),
    ("manifest-zero-frames", [("manifest.json", ("total_frames",), 0)], SELECT,
     "error:2:{tmp}/manifest.json: total_frames must be an integer >= 1, got 0"),
    ("manifest-empty-pool", [("manifest.json", ("fps",), 10.0), ("manifest.json", ("seconds",), [])], SELECT,
     "error:2:{tmp}/manifest.json: video 'fixture' spans zero whole seconds (3 frames at 10.0 fps)"),
    # cap is checked before the seconds' length, which a cap of 0 would set to 0.
    ("manifest-cap-zero", [("manifest.json", ("cap",), 0)], SELECT,
     "error:2:{tmp}/manifest.json: cap must be an integer >= 1, got 0"),
    ("manifest-cap-one", [("manifest.json", ("cap",), 1), ("manifest.json", ("seconds",), [0])], SELECT,
     "error:2:{tmp}/manifest.json: cannot spread cap=1 over 3 candidate seconds"),
    ("fsel-truncated-header", [("relevance.fsel", None, b"FSEL")], SELECT,
     "error:2:{tmp}/relevance.fsel: truncated header (4 bytes)"),
    ("fsel-bad-magic", [("relevance.fsel", None, fsel([[1, 0]] * 3, magic=b"XSEL"))], SELECT,
     "error:2:{tmp}/relevance.fsel: bad magic b'XSEL', expected b'FSEL'"),
    ("fsel-version", [("query.fsel", None, fsel([[1, 0]], version=2))], SELECT,
     "error:2:{tmp}/query.fsel: unsupported version 2, expected 1"),
    ("fsel-short-payload", [("semantic.fsel", None, fsel([[1, 0]] * 3, trim=4))], SELECT,
     "error:2:{tmp}/semantic.fsel: payload is 20 bytes, expected 24 for 3x2 float32"),
    ("fsel-trailing-bytes", [("relevance.fsel", None, fsel([[1, 0]] * 3) + bytes(4))], SELECT,
     "error:2:{tmp}/relevance.fsel: payload is 28 bytes, expected 24 for 3x2 float32"),
    ("fsel-relevance-row-count", [("relevance.fsel", None, fsel([[1, 0]] * 2))], SELECT,
     "error:3:relevance embeddings have 2 rows, pool has 3 candidates"),
    ("fsel-row-count", [("semantic.fsel", None, fsel([[1, 0]] * 2))], SELECT,
     "error:3:semantic embeddings have 2 rows, pool has 3 candidates"),
    ("fsel-zero-row", [("semantic.fsel", None, fsel([[1, 0], [0, 0], [0, 1]]))], SELECT,
     "error:2:semantic row 1 has zero norm"),
    ("fsel-nan-row", [("relevance.fsel", None, fsel([[np.nan, 0], [1, 0], [0, 1]]))], SELECT,
     "error:2:relevance row 0 has non-finite norm"),
    ("fsel-inf-semantic-row", [("semantic.fsel", None, fsel([[1, 0], [np.inf, 0], [0, 1]]))], SELECT,
     "error:2:semantic row 1 has non-finite norm"),
    ("fsel-nan-query", [("query.fsel", None, fsel([[np.nan, 0]]))], SELECT,
     "error:2:query row 0 has non-finite norm"),
    ("fsel-two-row-query", [("query.fsel", None, fsel([[1, 0], [0, 1]]))], SELECT,
     "error:3:query must be a single vector, got 2 rows"),
    ("model-type-kind", [("model.json", ("types", 1), 5)], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: types must be strings"),
    ("model-nan-weight", [("model.json", ("weights", 0), float("nan"))], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: weights must be finite numbers"),
    ("model-weight-Infinity", [("model.json", ("weights", 0), float("inf"))], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: weights must be finite numbers"),
    ("model-weight--Infinity", [("model.json", ("weights", 0), float("-inf"))], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: weights must be finite numbers"),
    ("model-weight-true", [("model.json", ("weights", 0), True)], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: weights must be finite numbers"),
    ("model-weight-string", [("model.json", ("weights", 0), "1.0")], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: weights must be finite numbers"),
    ("model-weight-null", [("model.json", ("weights", 0), None)], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: weights must be finite numbers"),
    ("model-weight-int400", [("model.json", ("weights", 0), 10**400)], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: weights must be finite numbers"),
    ("model-featurization", [("model.json", ("featurization",), "words")], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: featurization 'words' is not 'token-counts:lowercase:[a-z0-9]+'"),
    ("model-repeated-types", [("model.json", ("types",), ["count", "count"])], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: types must be a non-empty list of distinct strings"),
    ("model-empty-type", [("model.json", ("types", 1), "")], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: empty type label"),
    ("model-vocabulary-gap", [("model.json", ("vocabulary", "how"), 99)], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: vocabulary indices must cover 0..10"),
    # In place of index 1; true and 1.0 compare equal to 1.
    ("model-vocabulary-index-string", [("model.json", ("vocabulary", "1"), "x")], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: vocabulary values must be integers"),
    ("model-vocabulary-index-bool", [("model.json", ("vocabulary", "1"), True)], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: vocabulary values must be integers"),
    ("model-vocabulary-index-float", [("model.json", ("vocabulary", "1"), 1.0)], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: vocabulary values must be integers"),
    ("model-weight-count", [("model.json", ("weights",), [0.0] * 23)], ROUTE_QUESTION,
     "error:2:{tmp}/model.json: expected 24 weights, got 23"),
    ("routing-row-kind", [("routing.json", ("provenance", "needle"), [0.5] * 4)], ROUTE_TYPE,
     "error:2:{tmp}/routing.json: provenance values must be objects"),
    ("routing-empty-type", [("routing.json", ("provenance", ""), FULL_ROW)], ROUTE_TYPE,
     "error:2:{tmp}/routing.json: empty type label"),
    ("routing-accuracy", [("routing.json", ("provenance", "needle", "coverage_only"), 1.5)], ROUTE_TYPE,
     "error:2:{tmp}/routing.json: type 'needle' accuracies must be finite numbers in [0, 1]"),
    # count keeps relevance_oriented as its best preset under each of these.
    ("routing-negative-accuracy", [("routing.json", ("provenance", "count", "coverage_only"), -3.0)], ROUTE_TYPE,
     "error:2:{tmp}/routing.json: type 'count' accuracies must be finite numbers in [0, 1]"),
    ("routing-nan-accuracy", [("routing.json", ("provenance", "count", "relevance_oriented"), float("nan"))],
     ROUTE_TYPE, "error:2:{tmp}/routing.json: type 'count' accuracies must be finite numbers in [0, 1]"),
    ("routing-inf-accuracy", [("routing.json", ("provenance", "count", "relevance_oriented"), float("inf"))],
     ROUTE_TYPE, "error:2:{tmp}/routing.json: type 'count' accuracies must be finite numbers in [0, 1]"),
    ("routing-minus-inf-accuracy", [("routing.json", ("provenance", "count", "coverage_only"), float("-inf"))],
     ROUTE_TYPE, "error:2:{tmp}/routing.json: type 'count' accuracies must be finite numbers in [0, 1]"),
    ("routing-empty", [("routing.json", None, '{"mapping": {}, "provenance": {}}')], ROUTE_TYPE,
     "error:2:{tmp}/routing.json: empty accuracy table"),
    ("deep-routing-json", [("routing.json", None, "[" * 100_000 + "]" * 100_000)], ROUTE_TYPE,
     "error:2:{tmp}/routing.json: not valid JSON (nested too deeply)"),
    ("routing-missing-cell", [("routing.json", ("provenance", "needle"), MISSING_CELL)], ROUTE_TYPE,
     "error:2:{tmp}/routing.json: type 'needle' lacks accuracy for presets: ['coverage_only']"),
    ("routing-unknown-cell", [("routing.json", ("provenance", "needle", "bogus"), 0.9)], ROUTE_TYPE,
     "error:2:{tmp}/routing.json: type 'needle' has accuracy for unknown presets: ['bogus']"),
    ("routing-tampered-mapping", [("routing.json", ("mapping", "count"), "coverage_only")], ROUTE_TYPE,
     "error:2:{tmp}/routing.json: mapping is not the best preset per type that provenance gives"),
    # A tie goes to the earliest preset, not to any preset that attains the maximum.
    ("routing-tie-to-a-later-preset",
     [("routing.json", ("provenance", "needle"), FULL_ROW), ("routing.json", ("mapping", "needle"), "coverage_only")],
     ROUTE_TYPE, "error:2:{tmp}/routing.json: mapping is not the best preset per type that provenance gives"),
    # Each rule in turn: the empty type is reported before the accuracy,
    # the missing cell and the mapping that this table also breaks.
    ("routing-multi-fault",
     [("routing.json", ("provenance", "count", "relevance_only"), float("nan")),
      ("routing.json", ("provenance", "needle"), MISSING_CELL),
      ("routing.json", ("provenance", ""), FULL_ROW),
      ("routing.json", ("mapping", "count"), "coverage_only")], ROUTE_TYPE,
     "error:2:{tmp}/routing.json: empty type label"),
    ("routing-accuracy-before-cells",
     [("routing.json", ("provenance", "needle"), MISSING_CELL),
      ("routing.json", ("provenance", "count", "coverage_only"), -2.0)], ROUTE_TYPE,
     "error:2:{tmp}/routing.json: type 'count' accuracies must be finite numbers in [0, 1]"),
    ("csv-empty-file", [("acc.csv", None, "")], FIT,
     "error:2:{tmp}/acc.csv: empty accuracy table"),
    ("csv-header-only", [("acc.csv", None, HEADER)], FIT,
     "error:2:{tmp}/acc.csv: empty accuracy table"),
    ("csv-header", [("acc.csv", None, "type,a,b\n")], FIT,
     "error:2:{tmp}/acc.csv: header must be "
     "type,relevance_only,relevance_oriented,coverage_oriented,coverage_only, got type,a,b"),
    ("csv-short-row", [("acc.csv", None, HEADER + "count,0.5,0.9\n")], FIT,
     "error:2:{tmp}/acc.csv:2: expected 5 fields, got 3"),
    ("csv-not-a-number", [("acc.csv", None, HEADER + "count,0.5,x,0.2,0.1\n")], FIT,
     "error:2:{tmp}/acc.csv:2: accuracy 'x' is not a number"),
    ("csv-outside-unit", [("acc.csv", None, HEADER + "count,0.5,1.5,0.2,0.1\n")], FIT,
     "error:2:{tmp}/acc.csv:2: accuracy 1.5 outside [0, 1]"),
    ("csv-duplicate-type", [("acc.csv", None, ACCURACY + "count,0.1,0.1,0.1,0.1\n")], FIT,
     "error:2:{tmp}/acc.csv:4: duplicate type 'count'"),
    ("csv-empty-type", [("acc.csv", None, ACCURACY + ",0.1,0.1,0.1,0.1\n")], FIT,
     "error:2:{tmp}/acc.csv:4: empty type label"),
    ("long-csv-field", [("acc.csv", None, HEADER + "x" * 140_000 + ",0.5,0.9,0.2,0.1\n")], FIT,
     "error:2:{tmp}/acc.csv: not valid CSV: field larger than field limit (131072)"),
    ("csv-not-utf8", [("acc.csv", None, HEADER.encode("utf-8") + b"\xff\n")], FIT,
     "error:2:{tmp}/acc.csv: not valid UTF-8 "
     "('utf-8' codec can't decode byte 0xff in position 71: invalid start byte)"),
    ("tsv-no-tab", [("train.tsv", None, "count how many\n")], TRAIN,
     "error:2:{tmp}/train.tsv:1: expected type<TAB>question"),
    ("tsv-empty-type", [("train.tsv", None, TRAINING + "\tno type\n")], TRAIN,
     "error:2:{tmp}/train.tsv:7: empty type label"),
    ("tsv-one-class", [("train.tsv", None, "count\thow many\n")], TRAIN,
     "error:4:need at least two classes, got ['count']"),
    ("tsv-not-utf8", [("train.tsv", None, b"count\thow many \xff\n")], TRAIN,
     "error:2:{tmp}/train.tsv: not valid UTF-8 "
     "('utf-8' codec can't decode byte 0xff in position 15: invalid start byte)"),
    ("tsv-repeated-declared-type", [], [*TRAIN, "--types", "count,needle,count"],
     "error:4:types must be a non-empty list of distinct strings"),
    ("tsv-label-outside-types", [("train.tsv", None, TRAINING + "order\twhat happens first\n")], [*TRAIN, "--types", "count,needle"],
     "error:4:labels outside the declared types: ['order']"),
    # The count rule, one message form for every count.
    ("count-budget", [], [*SELECT[:-1], "0"],
     "error:4:budget must be an integer >= 1, got 0"),
    ("count-compare-budget", [], ["compare", *SELECT[1:-1], "0"],
     "error:4:budget must be an integer >= 1, got 0"),
    ("count-cap", [], ["pool", "--fps", "1", "--frames", "10", "--cap", "0"],
     "error:4:cap must be an integer >= 1, got 0"),
    ("count-frames", [], ["pool", "--fps", "1", "--frames", "0"],
     "error:4:total_frames must be an integer >= 1, got 0"),
    ("count-epochs", [], [*TRAIN, "--epochs", "0"],
     "error:4:epochs must be an integer >= 1, got 0"),
    ("count-oracle-n", [], ["oracle", "--n", "0"],
     "error:4:max_n must be an integer >= 1, got 0"),
    ("count-oracle-k", [], ["oracle", "--k", "0"],
     "error:4:max_k must be an integer >= 1, got 0"),
    ("count-oracle-trials", [], ["oracle", "--trials", "-1"],
     "error:4:count must be an integer >= 0, got -1"),
    ("count-props-trials", [], ["props", "--trials", "-1"],
     "error:4:count must be an integer >= 0, got -1"),
    # The number rule: a real number, not a bool, finite as a float64.
    ("number-manifest-fps", [("manifest.json", ("fps",), 0)], SELECT,
     "error:2:{tmp}/manifest.json: fps must be positive and finite, got 0.0"),
    ("number-pool-fps", [], ["pool", "--fps", "inf", "--frames", "10"],
     "error:4:fps must be positive and finite, got inf"),
    ("number-learning-rate", [], [*TRAIN, "--learning-rate", "nan"],
     "error:4:learning rate must be positive and finite, got nan"),
    ("learning-rate-inf", [], [*TRAIN, "--learning-rate", "inf"],
     "error:4:learning rate must be positive and finite, got inf"),
    ("number-lambda", [], [*SELECT, "--lambda", "inf"],
     "error:4:lambda must be finite, got inf"),
    ("number-route-lambda", [], [*ROUTE_TYPE, "--lambda", "nan"],
     "error:4:lambda must be finite, got nan"),
    ("usage-missing-flags", [], ["select"],
     "error:4:the following arguments are required: --manifest, --preset"),
    ("usage-unknown-command", [], ["nonsense-subcommand"],
     "error:4:argument command: invalid choice: 'nonsense-subcommand' (choose from "
     "'pool', 'select', 'compare', 'oracle', 'props', 'train-classifier', 'fit-routing', 'route')"),
    ("usage-unknown-flag", [], [*SELECT, "--bogus", "1"],
     "error:4:unrecognized arguments: --bogus 1"),
    # --seed belongs to the randomized commands only.
    ("usage-seed-on-select", [], [*SELECT, "--seed", "1"],
     "error:4:unrecognized arguments: --seed 1"),
    ("usage-seed-on-route", [], [*ROUTE_TYPE, "--seed", "1"],
     "error:4:unrecognized arguments: --seed 1"),
    # An option given as the empty string is given, not absent.
    ("usage-empty-out", [], ["pool", "--fps", "1", "--frames", "3", "--out", ""],
     "error:4:argument --out: must not be empty"),
    ("usage-empty-types", [], [*TRAIN, "--types", ""],
     "error:4:empty type label"),
    # Undecodable argv bytes arrive as lone surrogates.
    ("argv-lone-surrogate", [], ["pool", "--fps", "1", "--frames", "3", "--video-id", "\udcff"],
     "error:4:argument --video-id: not valid UTF-8"),
    ("usage-auto-without-routing", [], [*SELECT[:4], "auto"],
     "error:4:--preset auto requires --routing"),
    ("usage-route-without-question", [], ROUTE_TYPE[:3],
     "error:4:routing a question needs --model and --question, or --type"),
    ("usage-unmapped-type", [], [*ROUTE_TYPE[:4], "ego"],
     "error:3:no preset mapped for question type 'ego'"),
    ("usage-missing-file", [], [*SELECT[:2], "{tmp}/missing.json", *SELECT[3:]],
     "error:1:[Errno 2] No such file or directory: '{tmp}/missing.json'"),
    ("usage-missing-csv", [], [*FIT[:2], "{tmp}/missing.csv"],
     "error:1:[Errno 2] No such file or directory: '{tmp}/missing.csv'"),
    ("pool-zero-seconds", [], ["pool", "--fps", "30", "--frames", "15"],
     "error:4:video 'video' spans zero whole seconds (15 frames at 30.0 fps)"),
    ("pool-frames-huge", [], ["pool", "--fps", "2", "--frames", str(10**400)],
     "error:4:total_frames / fps must be a finite number of seconds, got fps 2.0"),
    ("pool-fps-tiny", [], ["pool", "--fps", "1e-300", "--frames", "10000000000"],
     "error:4:total_frames / fps must be a finite number of seconds, got fps 1e-300"),
    # Once a MemoryError, building 10**12 seconds that no embedding file can match.
    ("pool-past-row-limit", [], ["pool", "--fps", "1", "--frames", "1000000000000", "--cap", "1000000000000"],
     "error:4:more than 4294967295 candidates, the most rows an embedding file holds"),
    ("oracle-too-large", [], ["oracle", "--n", "25"],
     "error:4:exact search handles at most 20 candidates, got 25"),
]


def test_case_ids_are_distinct():
    # pytest would suffix a repeated id, and a row is named by its id.
    ids = [case[0] for case in CASES]
    assert sorted({i for i in ids if ids.count(i) > 1}) == []


def test_every_line_is_one_error_line():
    assert [case[0] for case in CASES if not re.fullmatch(r"error:[1-4]:[^\n]+", case[3])] == []


def test_every_command_has_a_row():
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(set(commands) - {case[2][0] for case in CASES}) == []


def test_every_input_file_has_a_row(cli_inputs):
    # A file reader's rule is pinned here, by a row that edits the file.
    edited = {name for case in CASES for name, _, _ in case[1]}
    assert sorted({path.name for path in cli_inputs.iterdir()} - edited) == []


def apply_edit(path, keys, value):
    if keys is None:
        if isinstance(value, bytes):
            path.write_bytes(value)
        else:
            path.write_text(value, encoding="utf-8")
        return
    doc = json.loads(path.read_text(encoding="utf-8"))
    *parents, last = keys
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_the_inputs_are_valid(cli_inputs):
    for argv in (SELECT, ROUTE_TYPE, ROUTE_QUESTION, FIT, TRAIN):
        assert run_checked([arg.replace("{tmp}", str(cli_inputs)) for arg in argv])[0] == 0, argv


@pytest.mark.parametrize(("edits", "argv", "line"), [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_error_line(edits, argv, line, cli_inputs):
    for name, keys, value in edits:
        apply_edit(cli_inputs / name, keys, value)
    code, stdout, stderr = run_checked([arg.replace("{tmp}", str(cli_inputs)) for arg in argv])
    assert (code, stdout, stderr.replace(str(cli_inputs), "{tmp}")) == (int(line.split(":")[1]), "", line + "\n")
