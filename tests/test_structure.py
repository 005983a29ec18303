"""Source-structure guards.

Input text is decoded, and JSON kinds checked, in ``fileio`` alone; the
instance rule is stated in ``selection._instance`` alone, the preset names
in ``selection.py`` alone, and the exact-search bound in one ``oracle``
helper.  The model and routing-table rules are stated in the two types
and their helpers alone, and only ``fileio.in_file`` re-raises a framesel
error naming a file.  The count rule (an integer >= n) is stated in
``pool._count`` alone, the 1-based position rule in
``pool._position_index`` alone, and the number rule (a real number, not a
bool, finite as a float64) in ``pool._finite`` alone, with
``fileio.all_of_kind`` as its vectorised form.  Each exit code has one
error class, and the message alone tells two failures apart.  An
embedding set is built, normalised and checked by its constructor alone.
A dataclass that holds an array compares and hashes by identity.  The
coverage scaling has one representation: a coverage sum is divided by
``c.shape[0]`` in ``_terms`` and ``_batched_gains`` alone.  ``select``
alone runs greedy's loop, ``_greedy_steps``.  In the tests,
``conftest.run_cli`` alone runs the CLI in-process, and one helper alone
wraps the gain kernel, for one test that checks greedy's step records
against an outside count.
"""

import ast
from pathlib import Path

from framesel import errors
from framesel.selection import PRESET_WEIGHTS

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "framesel"


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


RULE_PHRASES = ("relevance scores must", "preset weights must")


def rule_raises(node, phrases=RULE_PHRASES):
    """(phrase, line) of each ``raise`` under ``node`` whose message holds one of ``phrases``.

    A message is matched with ``{}`` in place of each formatted value, so
    ``f"{where}: expected {n} weights"`` holds ``"expected {} weights"``.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise) and isinstance(sub.exc, ast.Call) and sub.exc.args:
            message = sub.exc.args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            text = "".join(p.value if isinstance(p, ast.Constant) and isinstance(p.value, str) else "{}" for p in parts)
            for phrase in phrases:
                if phrase in text:
                    yield phrase, sub.lineno


def test_only_the_instance_helper_states_the_instance_rule():
    trees = {name: ast.parse((SOURCE / name).read_text(encoding="utf-8")) for name in ("selection.py", "oracle.py")}
    helper = next(n for n in trees["selection.py"].body if isinstance(n, ast.FunctionDef) and n.name == "_instance")
    inside = {("selection.py", *site) for site in rule_raises(helper)}
    # The guard sees both of the helper's phrases.
    assert {phrase for _, phrase, _ in inside} == set(RULE_PHRASES)
    sites = {(name, *site) for name, tree in trees.items() for site in rule_raises(tree)}
    assert sorted(sites - inside) == []


def preset_name_constants(path):
    """(name, line) of each string constant in ``path`` equal to a preset name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and node.value in PRESET_WEIGHTS:
            yield node.value, node.lineno


def test_only_selection_names_the_presets():
    modules = sorted(SOURCE.glob("*.py"))
    # The guard sees the table's four keys.
    assert {name for name, _ in preset_name_constants(SOURCE / "selection.py")} == set(PRESET_WEIGHTS)
    offenders = [f"{path.name}:{line}" for path in modules if path.name != "selection.py" for _, line in preset_name_constants(path)]
    assert offenders == []


EXACT_SEARCH_PHRASE = "exact search handles"


def test_only_the_oracle_helper_states_the_exact_search_bound():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}
    helper = next(n for n in trees["oracle.py"].body if isinstance(n, ast.FunctionDef) and n.name == "_refuse_past_exact_search")
    inside = {("oracle.py", *site) for site in rule_raises(helper, (EXACT_SEARCH_PHRASE,))}
    # The guard sees the helper's raise.
    assert len(inside) == 1
    sites = {(name, *site) for name, tree in trees.items() for site in rule_raises(tree, (EXACT_SEARCH_PHRASE,))}
    assert sorted(sites - inside) == []


MODEL_AND_TABLE_PHRASES = (
    "accuracies must be", "types must be", "vocabulary keys must", "vocabulary indices must", "empty type label", "expected {} weights",
)


def test_only_the_types_state_the_model_and_table_rules():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}
    body = {node.name: node for node in trees["routing.py"].body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    owners = [body["_refuse_empty_type"], body["_refuse_bad_types"]] + [
        next(n for n in body[name].body if isinstance(n, ast.FunctionDef) and n.name == "__post_init__")
        for name in ("QuestionTypeModel", "RoutingTable")
    ]
    inside = {("routing.py", *site) for owner in owners for site in rule_raises(owner, MODEL_AND_TABLE_PHRASES)}
    # The guard sees every phrase in its owner.
    assert {phrase for _, phrase, _ in inside} == set(MODEL_AND_TABLE_PHRASES)
    sites = {(name, *site) for name, tree in trees.items() for site in rule_raises(tree, MODEL_AND_TABLE_PHRASES)}
    assert sorted(sites - inside) == []


FRAMESEL_ERRORS = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.FrameselError)}


def error_reraises(tree):
    """(function, line) of each ``except`` that catches a framesel error and raises."""
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for handler in ast.walk(func):
                if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                    if any(isinstance(c, ast.Name) and c.id in FRAMESEL_ERRORS for c in caught) and any(
                        isinstance(sub, ast.Raise) for sub in ast.walk(handler)
                    ):
                        yield func.name, handler.lineno


def test_only_the_fileio_helper_reraises_a_framesel_error():
    sites = {(path.name, *site) for path in sorted(SOURCE.glob("*.py")) for site in error_reraises(ast.parse(path.read_text(encoding="utf-8")))}
    assert sorted((name, func) for name, func, _ in sites) == [("fileio.py", "in_file")]


def test_one_error_class_per_exit_code():
    codes = {name: getattr(errors, name).exit_code for name in FRAMESEL_ERRORS}
    assert sorted(codes.values()) == [1, 2, 3, 4], codes


COUNT_PHRASES = ("must be an integer >=", "must be >= 1")
POSITION_PHRASES = ("positions must be integers", "positions must lie in", "position must be an integer", "outside 1..")


def test_one_helper_states_the_count_rule_and_one_the_position_rule():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}
    helpers = {n.name: n for n in trees["pool.py"].body if isinstance(n, ast.FunctionDef)}
    for helper, phrases, seen in (
        ("_count", COUNT_PHRASES, {"must be an integer >="}),
        ("_position_index", POSITION_PHRASES, {"positions must be integers", "positions must lie in"}),
    ):
        inside = {("pool.py", *site) for site in rule_raises(helpers[helper], phrases)}
        # The guard sees the helper's own messages.
        assert {phrase for _, phrase, _ in inside} == seen
        sites = {(name, *site) for name, tree in trees.items() for site in rule_raises(tree, phrases)}
        assert sorted(sites - inside) == [], helper


def number_rule_sites(node):
    """Lines under ``node`` that test one number for finiteness.

    That is any ``math.isfinite``, a comparison with ``math.inf`` or
    ``np.inf``, or an ``np.isfinite`` whose result is used as one truth
    value: not reduced by ``.all()`` nor inverted elementwise by ``~``, as
    an array check is.
    """
    parents = {child: parent for parent in ast.walk(node) for child in ast.iter_child_nodes(parent)}

    def named(sub, module, attr):
        return isinstance(sub, ast.Attribute) and sub.attr == attr and isinstance(sub.value, ast.Name) and sub.value.id in module

    for sub in ast.walk(node):
        if named(sub, ("math",), "isfinite"):
            yield sub.lineno
        elif named(sub, ("np", "numpy"), "isfinite"):
            use = parents.get(parents.get(sub))
            if not (isinstance(use, ast.Attribute) and use.attr == "all" or isinstance(use, ast.UnaryOp) and isinstance(use.op, ast.Invert)):
                yield sub.lineno
        elif isinstance(sub, ast.Compare) and any(named(n, ("math", "np", "numpy"), "inf") for n in ast.walk(sub)):
            yield sub.lineno


def test_one_helper_states_the_number_rule():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}
    owners = {
        name: next(n for n in trees[name].body if isinstance(n, ast.FunctionDef) and n.name == func)
        for name, func in (("pool.py", "_finite"), ("fileio.py", "all_of_kind"))
    }
    inside = {(name, line) for name, owner in owners.items() for line in number_rule_sites(owner)}
    # The guard sees the helper's test and its vectorised form's.
    assert {name for name, _ in inside} == set(owners)
    sites = {(name, line) for name, tree in trees.items() for line in number_rule_sites(tree)}
    assert sorted(sites - inside) == []


def test_embedding_set_has_one_construction_path():
    tree = ast.parse((SOURCE / "embeddings.py").read_text(encoding="utf-8"))
    body = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "EmbeddingSet").body
    # The guard sees the checking constructor.
    assert "__post_init__" in {n.name for n in body if isinstance(n, ast.FunctionDef)}
    factories = [
        f.name
        for f in body
        if isinstance(f, ast.FunctionDef)
        for d in f.decorator_list
        if isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
    ]
    assert factories == []


def array_records(path):
    """(name, passes ``eq=False``) of each ``@dataclass`` class in ``path`` with a field annotated ``np.ndarray``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ClassDef):
            continue
        fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
        if not any("np.ndarray" in ast.unparse(f.annotation) for f in fields):
            continue
        for d in node.decorator_list:
            func, keywords = (d.func, d.keywords) if isinstance(d, ast.Call) else (d, [])
            if ast.unparse(func) in ("dataclass", "dataclasses.dataclass"):
                yield node.name, "eq=False" in map(ast.unparse, keywords)


def test_array_records_compare_by_identity():
    records = dict(record for path in sorted(SOURCE.glob("*.py")) for record in array_records(path))
    # The guard sees the four records that hold arrays.
    assert {"EmbeddingSet", "QuestionTypeModel", "ClassifierEvaluation", "RandomInstance"} <= set(records)
    assert [name for name, eq_off in records.items() if not eq_off] == []


def in_place_divisions(path):
    """(function, divisor) of each in-place division ``x /= d`` in ``path``."""
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(func, ast.FunctionDef):
            for sub in ast.walk(func):
                if isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.Div):
                    yield func.name, ast.unparse(sub.value)


def test_one_representation_of_the_coverage_scaling():
    sites = sorted(in_place_divisions(SOURCE / "selection.py"))
    # The guard sees the division in F's helper and the one in greedy's gains.
    assert {func for func, _ in sites} == {"_terms", "_batched_gains"}
    assert sites == [("_batched_gains", "c.shape[0]"), ("_terms", "c.shape[0]")]


def cli_main_sites(path):
    """Lines of ``path`` that import ``main`` from ``framesel.cli`` or name ``cli.main``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "framesel.cli":
            if any(alias.name == "main" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "main" and ast.unparse(node.value).split(".")[-1] == "cli":
            yield node.lineno


def test_one_in_process_cli_runner():
    conftest = ast.parse((TESTS / "conftest.py").read_text(encoding="utf-8"))
    (runner,) = [n for n in conftest.body if isinstance(n, ast.FunctionDef) and n.name == "run_cli"]
    assert [a.arg for a in ast.walk(runner.args) if isinstance(a, ast.arg)] == ["args"]
    inside = {("conftest.py", line) for line in range(runner.lineno, runner.end_lineno + 1)}
    sites = {(path.name, line) for path in sorted(TESTS.glob("*.py")) for line in cli_main_sites(path)}
    # The guard sees the runner's own call.
    assert sites & inside
    assert sorted(sites - inside) == []


def calls_of(tree, name):
    """Names of the functions in ``tree`` that call ``name``, bare or as an attribute, once per call."""
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for call in ast.walk(func):
                if isinstance(call, ast.Call) and ast.unparse(call.func).split(".")[-1] == name:
                    yield func.name


def kernel_wraps(tree):
    """Names of the functions in ``tree`` that replace ``_coverage_sums``: by ``setattr`` or by assignment."""
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for sub in ast.walk(func):
                if isinstance(sub, ast.Call) and ast.unparse(sub.func).split(".")[-1] == "setattr":
                    named = [a.value for a in sub.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
                elif isinstance(sub, ast.Assign):
                    named = [ast.unparse(t) for t in sub.targets]
                else:
                    continue
                if any(n.split(".")[-1] == "_coverage_sums" for n in named):
                    yield func.name


def test_one_greedy_loop_and_one_kernel_wrap():
    sources = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}
    tests = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(TESTS.glob("*.py"))}
    # The guard sees the loop and the one wrapper.
    assert "_greedy_steps" in {n.name for n in sources["selection.py"].body if isinstance(n, ast.FunctionDef)}
    assert sorted((name, func) for name, tree in sources.items() for func in calls_of(tree, "_greedy_steps")) == [
        ("selection.py", "select")
    ]
    assert sorted((name, func) for name, tree in tests.items() for func in kernel_wraps(tree)) == [
        ("test_selection.py", "_count_row_sums")
    ]
    assert sorted((name, func) for name, tree in tests.items() for func in calls_of(tree, "_count_row_sums")) == [
        ("test_selection.py", "test_skip_engages_on_scene_structured_rows")
    ]
