"""The mutation table: source mutants, each with the tests that must kill it.

    python tests/mutants.py           # run every row; exit 1 naming each row that does not hold
    python tests/mutants.py NAME ...  # run the named rows

A row is one mutant: a file under ``src/framesel/`` or ``tests/``, and one
or two edits to it, each an exact snippet that occurs once there and its
replacement.  ``kills`` are the test ids that must fail on the mutant and
pass without it.  A corpus row also names ``moved``, the number of golden
corpus runs (``golden.py``) the mutant moves under the corpus's BLAS key.
An equivalent mutant, which no test can tell from the source, names no
ids but the ``reason``; the whole suite must pass on it, and the run names
each test that fails on it instead.  A new row can start that way, to find
its killers.

The runner copies the checkout without ``.git`` to a temporary directory
and writes nothing under the checkout.  It runs every listed id once on
the clean copy, where each must pass, and the corpus, where no run may
move.  Then it applies each row in turn and runs the row's ids in one
pytest subprocess, where each must fail.  ``test_mutants.py`` checks in
Tier-1 that every snippet occurs once and every id is collected, and that
the runner kills one row and reports a mutant that survives.  The full
run takes minutes, so it is a manual step, like the benchmark.

Mutation analysis: DeMillo, Lipton and Sayward, "Hints on Test Data
Selection: Help for the Practicing Programmer", IEEE Computer, 1978.  A
change that retires or merges a test runs the table, and a mutant that
survives it blocks the retirement.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The subprocess's ``-p mutants`` writes each test's outcome to the file this variable names.
OUTCOMES = "MUTANTS_OUTCOMES"
TIMEOUT = 900
# Plain asserts: a test passes or fails as under Tier-1, with a shorter
# failure message, and each run skips rewriting (about 2 s a subprocess).
PYTEST = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain")
MOVED = re.compile(r"^(\d+) of \d+ runs moved$", re.MULTILINE)


@dataclass(frozen=True)
class Mutant:
    """One row of the table: see the module docstring."""

    name: str
    path: str
    edits: tuple[tuple[str, str], ...]
    kills: tuple[str, ...] = ()
    reason: str | None = None
    moved: int | None = None


def row(name, path, *edits, kills=(), reason=None, moved=None) -> Mutant:
    """A table row; each edit is a (snippet, replacement) pair, applied in order."""
    return Mutant(name, path, edits, tuple(kills), reason, moved)


SELECTION = "src/framesel/selection.py"
EMBEDDINGS = "src/framesel/embeddings.py"
ORACLE = "src/framesel/oracle.py"
ROUTING = "src/framesel/routing.py"
POOL = "src/framesel/pool.py"
FILEIO = "src/framesel/fileio.py"
CLI = "src/framesel/cli.py"

STRUCTURE = "tests/test_structure.py::"
GOLDEN = "tests/test_golden.py::"
META = "tests/test_metamorphic.py::"
SEL = "tests/test_selection.py::"
ORC = "tests/test_oracle.py::"
CLI_T = "tests/test_cli.py::"
LINES = "tests/test_error_lines.py::test_error_line"
FLOAT_DIGESTS = GOLDEN + "test_float_bearing_digests"
FULL_RESCORING = SEL + "TestStaleBoundGreedy::test_bits_are_full_rescoring[defaults]"

# Each structure guard of ``test_structure.py`` fails on a rule break
# elsewhere, and on its owner no longer stating the rule (the guard's
# "sees" check).  Each row fails that guard alone.
STRUCTURE_ROWS = [
    row("guard-decode-json-in-pool", POOL,
        ("    doc = read_json(path)\n", "    import json\n\n    doc = json.loads(json.dumps(read_json(path)))\n"),
        kills=[STRUCTURE + "test_only_fileio_decodes_input"]),
    row("guard-fileio-without-decoding", FILEIO,
        ("    except UnicodeDecodeError as exc:", "    except ValueError as exc:"),
        ("        doc = json.loads(text)", "        doc = json.JSONDecoder().decode(text)"),
        kills=[STRUCTURE + "test_only_fileio_decodes_input"]),
    row("guard-isinstance-in-read-model", ROUTING,
        ('    types = require_key(doc, "types", list, where, of=str)\n',
         '    assert isinstance(doc, dict)\n    types = require_key(doc, "types", list, where, of=str)\n'),
        kills=[STRUCTURE + "test_only_fileio_checks_json_kinds"]),
    row("guard-read-json-without-isinstance", FILEIO,
        ("    if not isinstance(doc, dict):", "    if type(doc) is not dict:"),
        kills=[STRUCTURE + "test_only_fileio_checks_json_kinds"]),
    row("guard-score-rule-in-select", SELECTION,
        ('    k = _count("budget", k)\n    if engine',
         '    k = _count("budget", k)\n    if r is None:\n        raise ParameterError("relevance scores must be given")\n    if engine'),
        kills=[STRUCTURE + "test_only_the_instance_helper_states_the_instance_rule"]),
    row("guard-instance-without-weight-rule", SELECTION,
        ('f"preset weights must be finite', 'f"weights of the preset must be finite'),
        kills=[STRUCTURE + "test_only_the_instance_helper_states_the_instance_rule"]),
    row("guard-preset-name-in-cli", CLI,
        ("MAX_EPOCHS = 10_000\n", 'MAX_EPOCHS = 10_000\nCOVERAGE_ONLY = "coverage_only"\n'),
        kills=[STRUCTURE + "test_only_selection_names_the_presets"]),
    row("guard-preset-key-computed", SELECTION,
        ('    "coverage_only": (0.0, 1.0),', '    "coverage" + "_only": (0.0, 1.0),'),
        kills=[STRUCTURE + "test_only_selection_names_the_presets"]),
    row("guard-second-exact-search-raise", ORACLE,
        ("    _refuse_past_exact_search(max_n)\n",
         '    if max_n > MAX_EXACT_N:\n        raise ParameterError(f"exact search handles at most {MAX_EXACT_N} candidates")\n'),
        kills=[STRUCTURE + "test_only_the_oracle_helper_states_the_exact_search_bound"]),
    row("guard-exact-search-reworded", ORACLE,
        ('f"exact search handles at most', 'f"exact search covers at most'),
        kills=[STRUCTURE + "test_only_the_oracle_helper_states_the_exact_search_bound"]),
    row("guard-weight-count-in-read-model", ROUTING,
        ("    return in_file(where, QuestionTypeModel,",
         '    if len(weights) != len(types) * (len(vocabulary) + 1):\n'
         '        raise FormatError(f"{where}: expected {len(types) * (len(vocabulary) + 1)} weights")\n'
         "    return in_file(where, QuestionTypeModel,"),
        kills=[STRUCTURE + "test_only_the_types_state_the_model_and_table_rules"]),
    row("guard-model-without-weight-count", ROUTING,
        ('f"expected {shape[0] * shape[1]} weights, got', 'f"want {shape[0] * shape[1]} weights, got'),
        kills=[STRUCTURE + "test_only_the_types_state_the_model_and_table_rules"]),
    row("guard-reraise-in-cli", CLI,
        ("    table = fit_routing(read_accuracy_table(args.accuracy))\n",
         "    try:\n        table = fit_routing(read_accuracy_table(args.accuracy))\n    except ParameterError:\n        raise\n"),
        kills=[STRUCTURE + "test_only_the_fileio_helper_reraises_a_framesel_error"]),
    row("guard-in-file-returns", FILEIO,
        ('        raise FormatError(f"{where}: {exc}") from exc', '        return FormatError(f"{where}: {exc}")'),
        kills=[STRUCTURE + "test_only_the_fileio_helper_reraises_a_framesel_error"]),
    row("guard-second-class-for-code-4", "src/framesel/errors.py",
        ('    """A parameter value is outside its valid range."""\n\n    exit_code = 4\n',
         '    """A parameter value is outside its valid range."""\n\n    exit_code = 4\n\n\n'
         'class RangeError(FrameselError):\n    exit_code = 4\n'),
        kills=[STRUCTURE + "test_one_error_class_per_exit_code"]),
    row("guard-count-rule-in-select", SELECTION,
        ('    k = _count("budget", k)\n',
         '    if k < 1:\n        raise ParameterError(f"budget must be an integer >= 1, got {k!r}")\n    k = _count("budget", k)\n'),
        kills=[STRUCTURE + "test_one_helper_states_the_count_rule_and_one_the_position_rule"]),
    row("guard-position-rule-in-pool", POOL,
        ("    return pool.seconds[_position_index([position], pool.n)[0]]",
         '    if not _integral(position):\n        raise ParameterError(f"position must be an integer, got {position!r}")\n'
         "    return pool.seconds[_position_index([position], pool.n)[0]]"),
        kills=[STRUCTURE + "test_one_helper_states_the_count_rule_and_one_the_position_rule"]),
    row("guard-count-reworded", POOL,
        ('f"{name} must be an integer >= {least}', 'f"{name} must be a whole number >= {least}'),
        kills=[STRUCTURE + "test_one_helper_states_the_count_rule_and_one_the_position_rule"]),
    row("guard-isfinite-in-selection", SELECTION,
        ("from dataclasses import dataclass, field\n", "import math\nfrom dataclasses import dataclass, field\n"),
        ("    if not all(map(_finite, values)):", "    if not all(map(math.isfinite, values)):"),
        kills=[STRUCTURE + "test_one_helper_states_the_number_rule"]),
    row("guard-finite-without-isfinite", POOL,
        ("and not isinstance(x, bool) and math.isfinite(x)", "and not isinstance(x, bool) and abs(x) <= 1.7976931348623157e308"),
        kills=[STRUCTURE + "test_one_helper_states_the_number_rule"]),
    row("guard-embedding-set-factory", EMBEDDINGS,
        ("    semantic: np.ndarray\n\n",
         "    semantic: np.ndarray\n\n    @classmethod\n    def of(cls, relevance, query, semantic):\n"
         "        return cls(relevance, query, semantic)\n\n"),
        kills=[STRUCTURE + "test_embedding_set_has_one_construction_path"]),
    row("guard-embedding-set-constructor-renamed", EMBEDDINGS,
        ("    def __post_init__(self) -> None:\n        q = _floats(", "    def _check(self) -> None:\n        q = _floats("),
        kills=[STRUCTURE + "test_embedding_set_has_one_construction_path"]),
    row("guard-embedding-set-compares-by-value", EMBEDDINGS,
        ("@dataclass(frozen=True, eq=False)\nclass EmbeddingSet:", "@dataclass(frozen=True)\nclass EmbeddingSet:"),
        kills=[STRUCTURE + "test_array_records_compare_by_identity"]),
    row("guard-instance-without-array-annotations", ORACLE,
        ("    scores: np.ndarray\n    values: np.ndarray\n", "    scores: object\n    values: object\n"),
        kills=[STRUCTURE + "test_array_records_compare_by_identity"]),
    row("guard-third-coverage-division", SELECTION,
        ("    gains = [step.gain for step in steps]\n",
         "    gains = [step.gain for step in steps]\n    scaled = np.array(gains)\n    scaled /= c.shape[0]\n"),
        kills=[STRUCTURE + "test_one_representation_of_the_coverage_scaling"]),
    row("guard-terms-divides-out-of-place", SELECTION,
        ("            cov /= c.shape[0]\n        value", "            cov = cov / c.shape[0]\n        value"),
        kills=[STRUCTURE + "test_one_representation_of_the_coverage_scaling"]),
    row("guard-cli-main-imported-by-a-test", "tests/test_cli.py",
        ("from framesel import cli, oracle\n", "from framesel import cli, oracle\nfrom framesel.cli import main\n"),
        kills=[STRUCTURE + "test_one_in_process_cli_runner"]),
    row("guard-runner-reaches-main-by-getattr", "tests/conftest.py",
        ("        code = cli.main(", '        code = getattr(cli, "main")('),
        kills=[STRUCTURE + "test_one_in_process_cli_runner"]),
    row("guard-second-greedy-caller", SELECTION,
        ("# Stale candidates re-summed by a step's first batch",
         "def _picks(scores, values, k, preset, c):\n"
         "    return [step.index for step in _greedy_steps(scores, values, k, preset, False, c)]\n\n\n"
         "# Stale candidates re-summed by a step's first batch"),
        kills=[STRUCTURE + "test_one_greedy_loop_and_one_kernel_wrap"]),
    row("guard-second-kernel-wrap", "tests/test_metamorphic.py",
        ("K = 16\n", 'K = 16\n\n\ndef wrap(monkeypatch):\n    monkeypatch.setattr(fs.selection, "_coverage_sums", None)\n'),
        kills=[STRUCTURE + "test_one_greedy_loop_and_one_kernel_wrap"]),
    row("guard-greedy-loop-renamed", SELECTION,
        ("def _greedy_steps(", "def _greedy_loop("),
        ("list(_greedy_steps(", "list(_greedy_loop("),
        kills=[STRUCTURE + "test_one_greedy_loop_and_one_kernel_wrap"]),
]

# The property suite's failure branches and the checks around it.  Each
# broken-evaluator id patches one evaluator and pins the whole summary.
BROKEN = ORC + "TestPropertySuite::test_broken_evaluator_counted_and_reported"
PROPS_FAILURE = CLI_T + "TestOracleAndProps::test_props_failure_writes_the_summary_then_one_error_line"
PROPERTY_ROWS = [
    row("props-empty-set-branch-deleted", ORACLE,
        ('        if empty != 0.0:\n            found.append(f"empty_set_zero: F(empty) = {empty!r}")\n', ""),
        kills=[f"{BROKEN}[empty-set-one]"]),
    row("props-monotonicity-branch-deleted", ORACLE,
        ("        if f_union < f_small - 1e-6:\n", "        if False:\n"),
        kills=[f"{BROKEN}[minus-size]", f"{BROKEN}[empty-set-one]"]),
    row("props-submodularity-branch-deleted", ORACLE,
        ("        if gain_a < gain_b - 1e-6:\n", "        if False:\n"),
        kills=[f"{BROKEN}[gain-is-size]"]),
    row("props-consistency-branch-deleted", ORACLE,
        ("            if abs(inc - direct) > 1e-5:\n", "            if False:\n"),
        kills=[f"{BROKEN}[gain-plus-one]", PROPS_FAILURE]),
    row("props-keeps-the-last-counterexample", ORACLE,
        ("        if found and first is None:\n", "        if found:\n"),
        kills=[*(f"{BROKEN}[{case}]" for case in ("empty-set-one", "minus-size", "gain-is-size", "gain-plus-one")), PROPS_FAILURE]),
    row("props-failure-not-raised", CLI,
        ('    if not summary.passed:\n        raise FrameselError(f"property violation: {summary.first_counterexample}")\n', ""),
        kills=[PROPS_FAILURE]),
    row("embeddings-relevance-row-count-unchecked", EMBEDDINGS,
        ("    if relevance.shape[0] != n:\n", "    if False:\n"),
        kills=[LINES + "[fsel-relevance-row-count]"]),
    row("linetrace-counts-docstrings", "tests/linetrace.py",
        ("    docs = {id(f.body[0]) for f in funcs if ast.get_docstring(f, clean=False) is not None}\n", "    docs = set()\n"),
        kills=["tests/test_linetrace.py::test_statements_are_the_function_body_lines_without_docstrings"]),
]

# Mutants that move golden corpus runs.  The metamorphic relations of
# ``test_metamorphic.py`` kill the ones named among their ids.
SCALING_BYTES = META + "test_scaled_rows_give_the_same_bytes"
SCALING_BITS = META + "test_scaled_rows_give_the_same_bits"
REVERSAL = META + "test_reversed_rows_select_the_mirrored_set"
PERMUTATION = META + "test_permuted_rows_select_the_same_set"
DUPLICATE = META + "test_a_duplicate_of_a_chosen_frame_adds_no_coverage"
ORIENTED = ("relevance_oriented", "coverage_oriented")
CORPUS_ROWS = [
    row("greedy-ties-to-the-larger-position", SELECTION,
        ("        batch = _FIRST_BATCH\n        e0 = int(np.argmax(total))",
         "        batch = _FIRST_BATCH\n        e0 = n - 1 - int(np.argmax(total[::-1]))"),
        ("            batch *= 2\n            e0 = int(np.argmax(total))",
         "            batch *= 2\n            e0 = n - 1 - int(np.argmax(total[::-1]))"),
        kills=[SEL + "TestSelect::test_duplicate_tie_broken_to_smallest_position",
               SEL + "TestStaleBoundGreedy::test_stale_tie_at_smaller_position_wins", FULL_RESCORING, FLOAT_DIGESTS], moved=13),
    row("result-doc-keys-swapped", SELECTION,
        ('        "seconds": [int(s) for s in result.seconds],\n        "frame_indices": [int(f) for f in result.frame_indices],\n',
         '        "frame_indices": [int(f) for f in result.frame_indices],\n        "seconds": [int(s) for s in result.seconds],\n'),
        kills=[SEL + "TestResultFile::test_file_shape", FLOAT_DIGESTS], moved=204),
    row("normalize-coverage-without-division", SELECTION,
        ("            cov /= c.shape[0]\n        value", "            pass\n        value"),
        ("        cov /= c.shape[0]\n    return", "        pass\n    return"),
        kills=[SEL + "TestSelect::test_normalized_coverage_is_recorded_and_scaled", FULL_RESCORING, FLOAT_DIGESTS], moved=84),
    row("even-spacing-rounds-up", POOL,
        ("    return tuple(step // gaps for step in", "    return tuple(-(-step // gaps) for step in"),
        kills=["tests/test_pool.py::TestEvenSpacing::test_matches_the_float64_rule_below_two_to_the_40",
               GOLDEN + "test_blas_free_digests", FLOAT_DIGESTS], moved=90),
    row("query-not-normalised", EMBEDDINGS,
        ('        q = l2_normalize_rows(q, label="query")[0]\n', "        q = np.asarray(q, dtype=np.float64)[0]\n"),
        kills=[*(f"{SCALING_BYTES}[{name}]" for name in ORIENTED),
               *(f"{SCALING_BITS}[{name}-{flag}]" for name in (*ORIENTED, "coverage_only") for flag in (False, True)),
               "tests/test_embeddings.py::TestLoadEmbeddings::test_loads_and_normalizes", FLOAT_DIGESTS], moved=329),
    row("relevance-weight-rises-with-position", EMBEDDINGS,
        ("    scores.flags.writeable = False\n    return scores\n",
         "    scores = scores * (1 + 0.01 * np.arange(scores.shape[0]) / scores.shape[0])\n"
         "    scores.flags.writeable = False\n    return scores\n"),
        kills=[*(f"{REVERSAL}[{name}]" for name in ORIENTED), *(f"{PERMUTATION}[{name}]" for name in ORIENTED), FLOAT_DIGESTS],
        moved=343),
    row("relevance-weight-symmetric-about-the-middle", EMBEDDINGS,
        ("    scores.flags.writeable = False\n    return scores\n",
         "    n = scores.shape[0]\n    scores = scores * (1 + 0.02 * np.abs(np.arange(n) - (n - 1) / 2) / n)\n"
         "    scores.flags.writeable = False\n    return scores\n"),
        kills=[*(f"{PERMUTATION}[{name}]" for name in ORIENTED), FLOAT_DIGESTS], moved=352),
    row("greedy-takes-a-stale-argmax", SELECTION,
        ("        while not fresh[e0]:\n", "        if not fresh[e0]:\n"),
        kills=[FULL_RESCORING, SEL + "TestMarginalGain::test_replaying_greedy_gives_select_bits[scene]", FLOAT_DIGESTS], moved=128),
    row("coverage-vector-sums-rows", SELECTION,
        ("    return values[idx].max(axis=0, initial=COVERAGE_BASELINE)\n",
         "    return values[idx].sum(axis=0) + COVERAGE_BASELINE\n"),
        kills=[f"{DUPLICATE}[1-300]", f"{DUPLICATE}[3-1000]", "tests/test_acceptance.py::test_criterion_06_duplicate_suppression",
               FLOAT_DIGESTS], moved=208),
]

# One or more rows per contract of aim 3: greedy's (1 - 1/e) band, greedy
# equal to full re-scoring, byte-identical reruns, one error line per failure.
CONTRACT_ROWS = [
    row("bound-lower-edge-dropped", ORACLE,
        ("if ratio < GREEDY_RATIO_BOUND - RATIO_TOLERANCE or", "if ratio < 0.0 or"),
        kills=[ORC + "TestCheckBound::test_violation_raises[shrunk]", ORC + "TestCheckBound::test_violation_raises[just-below-the-band]"]),
    row("bound-upper-edge-moved", ORACLE,
        ("or ratio > 1.0 + RATIO_TOLERANCE:", "or ratio > 2.0:"),
        kills=[ORC + "TestCheckBound::test_violation_raises[inflated]"]),
    row("bound-is-one-half", ORACLE,
        ("GREEDY_RATIO_BOUND = 1.0 - 1.0 / math.e\n", "GREEDY_RATIO_BOUND = 0.5\n"),
        kills=[ORC + "TestCheckBound::test_violation_raises[just-below-the-band]"]),
    row("greedy-never-marks-gains-stale", SELECTION,
        ("            np.copyto(fresh, chosen)\n", ""),
        kills=[FULL_RESCORING, SEL + "TestStaleBoundGreedy::test_matches_reference_greedy"]),
    row("greedy-resums-the-smallest-bounds", SELECTION,
        ("stale = stale[np.argpartition(total[stale], -batch)[-batch:]]", "stale = stale[np.argpartition(total[stale], batch)[:batch]]"),
        kills=[SEL + "TestStaleBoundGreedy::test_skip_engages_on_iid_rows", SEL + "TestStaleBoundGreedy::test_skip_engages_on_scene_structured_rows"]),
    row("instances-drawn-unseeded", ORACLE,
        ("def _draw_instances(seed, count, max_n, max_k, presets) -> Iterator[RandomInstance]:\n    rng = np.random.default_rng(seed)\n",
         "def _draw_instances(seed, count, max_n, max_k, presets) -> Iterator[RandomInstance]:\n    rng = np.random.default_rng()\n"),
        kills=[ORC + "test_random_instances_are_deterministic_and_in_regime", CLI_T + "TestOracleAndProps::test_oracle_stream_and_determinism"]),
    row("coverage-vector-kept-across-calls", SELECTION,
        ("    c = np.full(n, COVERAGE_BASELINE)\n", "    c = _SCRATCH.setdefault(n, np.full(n, COVERAGE_BASELINE))\n"),
        ("ENGINES = (\"plain\", \"lazy\")\n", "ENGINES = (\"plain\", \"lazy\")\n_SCRATCH = {}\n"),
        kills=[CLI_T + "TestOracleAndProps::test_oracle_stream_and_determinism", GOLDEN + "test_exit_codes",
               CLI_T + "TestParserCache::test_commands_back_to_back_give_the_bytes_of_separate_processes"]),
    row("error-line-printed-twice", CLI,
        ('        print(f"error:{exc.exit_code}:{exc}", file=sys.stderr)\n',
         '        print(f"error:{exc.exit_code}:{exc}", file=sys.stderr)\n        print(f"error:{exc.exit_code}:{exc}", file=sys.stderr)\n'),
        kills=[f"{LINES}[usage-unknown-flag]", f"{LINES}[fsel-version]", "tests/test_fuzz.py::test_select_exits_cleanly_on_mutated_inputs"]),
    row("os-error-escapes-main", CLI,
        ("    except OSError as exc:\n", "    except ArithmeticError as exc:\n"),
        kills=[f"{LINES}[usage-missing-file]", f"{LINES}[usage-missing-csv]", "tests/test_fuzz.py::test_select_exits_cleanly_on_mutated_inputs"]),
]

# At least one row per module of ``src/framesel``.
MODULE_ROWS = [
    row("init-drops-marginal-gain", "src/framesel/__init__.py",
        ("    marginal_gain,\n", ""),
        kills=["tests/test_readme.py::test_verification_helpers_resolve", SEL + "TestMarginalGain::test_orthogonal_gain_from_empty_state"]),
    row("quiet-out-still-prints", CLI,
        ("        if not args.quiet:\n            print(f\"wrote", "        if True:\n            print(f\"wrote"),
        kills=[CLI_T + "TestOutputPaths::test_bare_file_name_lands_in_the_working_directory",
               CLI_T + "TestSelect::test_lazy_engine_output_is_byte_identical"]),
    row("run-record-drops-the-routed-type", CLI,
        ("        qtype, preset = _route_question(args)\n", "        preset = _route_question(args)[1]\n"),
        kills=[CLI_T + "TestSelect::test_auto_preset_records_routed_preset"]),
    row("embedding-version-zero-accepted", EMBEDDINGS,
        ("        if version != EMBEDDING_VERSION:", "        if version > EMBEDDING_VERSION:"),
        kills=[f"{LINES}[fsel-version-zero]"]),
    row("lone-surrogate-unchecked", FILEIO,
        ("        if _SURROGATE_ESCAPE.search(text):\n", "        if False:\n"),
        kills=[f"{LINES}[json-lone-surrogate]", f"{LINES}[json-lone-surrogate-compact]",
               "tests/test_fuzz.py::test_reported_inputs_exit_cleanly[json-lone-surrogate]"]),
    row("failed-write-leaves-its-temp-file", FILEIO,
        ("            os.unlink(tmp_name)\n", "            os.path.exists(tmp_name)\n"),
        kills=["tests/test_pool.py::TestManifest::test_failed_rename_keeps_the_old_file"]),
    row("spacing-of-one-is-the-last-index", POOL,
        ("    if count == 1:\n        return (0,)\n", "    if count == 1:\n        return (total - 1,)\n"),
        kills=[CLI_T + "TestCompare::test_budget_one_uniform_row_is_the_first_position"]),
    row("routing-ties-to-the-later-preset", ROUTING,
        ("max(PRESET_ORDER, key=row.__getitem__)", "max(reversed(PRESET_ORDER), key=row.__getitem__)"),
        kills=["tests/test_routing.py::TestRoutingTable::test_tie_row_goes_to_the_earlier_preset", f"{LINES}[routing-tie-to-a-later-preset]"]),
    row("training-takes-any-step", ROUTING,
        ("                if new_loss <= losses[-1] or rate < 1e-12:\n", "                if True:\n"),
        ("            if not new_loss <= losses[-1] or np.array_equal", "            if np.array_equal"),
        kills=["tests/test_routing.py::TestTrainClassifier::test_training_never_accepts_a_loss_raising_step"]),
    row("objective-is-the-sum-of-the-gains", SELECTION,
        ("    objective = _terms(scores, sel_sorted, c, preset, normalize_coverage)[2]\n",
         "    _terms(scores, sel_sorted, c, preset, normalize_coverage)\n    objective = float(sum(gains))\n"),
        kills=[SEL + "TestSelect::test_a_huge_budget_selects_every_candidate", SEL + "TestObjectiveValue::test_terms_match_reference_and_greedy_bits"]),
    row("result-order-is-the-sorted-positions", SELECTION,
        ("        order=order,\n", "        order=positions,\n"),
        kills=[SEL + "TestStaleBoundGreedy::test_pick_order_replays_the_gains"]),
    row("gain-block-size", SELECTION,
        ("_BLOCK_VALUES = 1 << 16\n", "_BLOCK_VALUES = 1 << 12\n"),
        reason="a block only groups rows: each row is still summed whole, so picks, gains and rows re-summed are unchanged"),
    row("norm-block-size", EMBEDDINGS,
        ("_NORM_BLOCK_VALUES = 1 << 16\n", "_NORM_BLOCK_VALUES = 1 << 10\n"),
        reason="a block only groups rows: each norm is still reduced over its whole row, so every norm keeps its bits"),
    row("first-batch-of-eight", SELECTION,
        ("_FIRST_BATCH = 16\n", "_FIRST_BATCH = 8\n"),
        kills=["tests/test_acceptance.py::test_criterion_11_work_ratio"]),
]

ROWS = STRUCTURE_ROWS + PROPERTY_ROWS + CORPUS_ROWS + CONTRACT_ROWS + MODULE_ROWS


def mutated(text: str, mutant: Mutant) -> str:
    """``text`` with ``mutant``'s edits applied in order; each snippet must occur exactly once."""
    for old, new in mutant.edits:
        count = text.count(old)
        if count != 1:
            raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.path}: {old!r}")
        text = text.replace(old, new)
    return text


def pytest_runtest_logreport(report):
    # Loaded into each pytest subprocess by ``-p mutants``.
    if report.when == "call" or report.outcome != "passed":
        with open(os.environ[OUTCOMES], "a", encoding="utf-8") as handle:
            handle.write(json.dumps([report.nodeid, report.outcome]) + "\n")


def environment(root: Path, **extra) -> dict:
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1", **extra)


def outcomes(root: Path, ids) -> dict[str, str]:
    """{test id: "passed", "failed" or "skipped"} of one pytest subprocess run in ``root`` on ``ids`` (or other arguments).

    A test that failed in any phase failed.  An id that did not run (it
    was not collected) is absent; on a timeout every id "timed out".
    """
    log = root.parent / "outcomes.jsonl"
    log.unlink(missing_ok=True)
    command = [sys.executable, *PYTEST, "-p", "mutants", *ids]
    try:
        subprocess.run(command, cwd=root, env=environment(root, **{OUTCOMES: str(log)}),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return dict.fromkeys(ids, "timed out")
    seen: dict[str, str] = {}
    for line in log.read_text(encoding="utf-8").splitlines() if log.exists() else []:
        nodeid, outcome = json.loads(line)
        if seen.get(nodeid) != "failed":
            seen[nodeid] = outcome
    return seen


def corpus_moved(root: Path) -> tuple[int | None, bool]:
    """(runs moved, or None if the replay crashed; whether float-bearing digests were compared) of ``golden.py`` in ``root``."""
    try:
        proc = subprocess.run([sys.executable, "tests/golden.py"], cwd=root, env=environment(root),
                              capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, True
    match = MOVED.search(proc.stdout)
    return (int(match.group(1)) if match else None), "not checked:" not in proc.stdout


def run_row(root: Path, mutant: Mutant) -> list[str]:
    """Problems of one row on ``root`` with the mutant applied; prints the row's line."""
    if mutant.reason is not None:
        # The table's own tests read the snippets, which the mutant has replaced.
        seen = outcomes(root, ["--ignore=tests/test_mutants.py"])
        failed = sorted(i for i, outcome in seen.items() if outcome not in ("passed", "skipped"))
        print(f"{mutant.name}: equivalent, the suite passes" if not failed else f"{mutant.name}: equivalent, but fails {failed}")
        return [f"{mutant.name}: equivalent, but {i} fails on it" for i in failed]
    seen = outcomes(root, mutant.kills)
    survivors = [i for i in mutant.kills if seen.get(i, "failed") in ("passed", "skipped")]
    line = f"{mutant.name}: killed by {len(mutant.kills) - len(survivors)} of {len(mutant.kills)} ids"
    problems = [f"{mutant.name}: {i} {seen[i]} on the mutant" for i in survivors]
    if mutant.moved is not None:
        moved, compared = corpus_moved(root)
        line += f", golden.py moved {'(crashed)' if moved is None else moved} runs (table: {mutant.moved})"
        if moved == 0:
            problems.append(f"{mutant.name}: golden.py moved no run")
        elif compared and moved is not None and moved != mutant.moved:
            problems.append(f"{mutant.name}: golden.py moved {moved} runs, the table says {mutant.moved}")
    print(line, flush=True)
    return problems


def check(rows, root: Path) -> list[str]:
    """Problems of ``rows`` on the checkout copy ``root``: empty when every row holds."""
    ids = sorted({i for mutant in rows for i in mutant.kills})
    clean = outcomes(root, ids) if ids else {}
    problems = [f"{i} {clean.get(i, 'did not run')} on the clean copy" for i in ids if clean.get(i) != "passed"]
    if any(mutant.moved is not None for mutant in rows):
        moved, _ = corpus_moved(root)
        if moved != 0:
            problems.append(f"golden.py moved {moved} runs on the clean copy")
    for mutant in rows:
        path = root / mutant.path
        text = path.read_bytes().decode("utf-8")
        path.write_bytes(mutated(text, mutant).encode("utf-8"))
        try:
            problems += run_row(root, mutant)
        finally:
            path.write_bytes(text.encode("utf-8"))
    return problems


def copy_checkout(target: Path) -> Path:
    """Copy the checkout, without ``.git`` and caches, to ``target``."""
    shutil.copytree(ROOT, target, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
    return target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation table: each row's ids must fail on its mutant and pass without it.")
    parser.add_argument("names", nargs="*", help="rows to run (default: every row)")
    args = parser.parse_args(argv)
    by_name = {mutant.name: mutant for mutant in ROWS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown rows: {', '.join(unknown)}")
    rows = [by_name[name] for name in args.names] if args.names else ROWS
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = copy_checkout(Path(tmp) / "checkout")
        problems = check(rows, root)
    for problem in problems:
        print(problem)
    failing = {problem.split(": ")[0] for problem in problems}
    killed = sum(mutant.reason is None and mutant.name not in failing for mutant in rows)
    equivalent = sum(mutant.reason is not None and mutant.name not in failing for mutant in rows)
    print(f"{len(rows)} rows: {killed} killed, {equivalent} equivalent, {len(problems)} problems in {time.perf_counter() - start:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
