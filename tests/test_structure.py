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


def parse_all(directory):
    """{file name: module tree} of each ``*.py`` file in ``directory``, each parsed once."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


SOURCES = parse_all(TESTS.parent / "src" / "framesel")
TEST_TREES = parse_all(TESTS)


def top(module, name):
    """The function or class ``name`` defined at the top of ``module`` (a module or class body)."""
    (node,) = [n for n in module.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
    return node


def in_functions(tree):
    """(function name, node) of every node inside every function of ``tree``."""
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                yield func.name, node


def where(find, trees=SOURCES):
    """Sorted (file name, site) of each site that ``find`` reports in ``trees``."""
    return sorted((name, site) for name, tree in trees.items() for site in find(tree))


def outside(find, owners, trees=SOURCES):
    """The sites ``find`` reports inside ``owners`` ({file name: nodes}), and those ``where`` reports elsewhere."""
    inside = {(name, site) for name, nodes in owners.items() for node in nodes for site in find(node)}
    return inside, [site for site in where(find, trees) if site not in inside]


def catches(node, names):
    """Whether ``node`` is an ``except`` clause that names one of ``names``."""
    caught = ast.walk(node.type) if isinstance(node, ast.ExceptHandler) and node.type is not None else []
    return any(isinstance(c, ast.Name) and c.id in names for c in caught)


def decoding_sites(tree):
    """Lines of ``tree`` that call ``json.loads`` or ``.read_text(``, or catch ``UnicodeDecodeError``."""
    for node in ast.walk(tree):
        callee = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
        if callee == "json.loads" or callee.endswith(".read_text") or catches(node, {"UnicodeDecodeError"}):
            yield node.lineno


def test_only_fileio_decodes_input():
    inside, elsewhere = outside(decoding_sites, {"fileio.py": [SOURCES["fileio.py"]]})
    # The guard sees fileio's own json.loads and UnicodeDecodeError handler.
    assert inside
    assert elsewhere == []


def reader_kind_checks(tree):
    """Lines of ``tree`` where a ``read_*`` or ``load_*`` function calls ``isinstance``."""
    for func, call in in_functions(tree):
        if func.startswith(("read_", "load_")) and isinstance(call, ast.Call) and ast.unparse(call.func) == "isinstance":
            yield call.lineno


def test_only_fileio_checks_json_kinds():
    inside, elsewhere = outside(reader_kind_checks, {"fileio.py": [SOURCES["fileio.py"]]})
    # The guard sees read_json's object check.
    assert inside
    assert elsewhere == []


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
    inside, elsewhere = outside(rule_raises, {"selection.py": [top(SOURCES["selection.py"], "_instance")]})
    # The guard sees both of the helper's phrases.
    assert {phrase for _, (phrase, _) in inside} == set(RULE_PHRASES)
    assert elsewhere == []


def preset_name_constants(tree):
    """(name, line) of each string constant in ``tree`` equal to a preset name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in PRESET_WEIGHTS:
            yield node.value, node.lineno


def test_only_selection_names_the_presets():
    inside, elsewhere = outside(preset_name_constants, {"selection.py": [SOURCES["selection.py"]]})
    # The guard sees the table's four keys.
    assert {name for _, (name, _) in inside} == set(PRESET_WEIGHTS)
    assert elsewhere == []


def test_only_the_oracle_helper_states_the_exact_search_bound():
    helper = top(SOURCES["oracle.py"], "_refuse_past_exact_search")
    inside, elsewhere = outside(lambda node: rule_raises(node, ("exact search handles",)), {"oracle.py": [helper]})
    # The guard sees the helper's raise.
    assert len(inside) == 1
    assert elsewhere == []


MODEL_AND_TABLE_PHRASES = (
    "accuracies must be", "types must be", "vocabulary keys must", "vocabulary indices must", "empty type label", "expected {} weights",
)


def test_only_the_types_state_the_model_and_table_rules():
    routing = SOURCES["routing.py"]
    owners = [top(routing, "_refuse_empty_type"), top(routing, "_refuse_bad_types")] + [
        top(top(routing, name), "__post_init__") for name in ("QuestionTypeModel", "RoutingTable")
    ]
    inside, elsewhere = outside(lambda node: rule_raises(node, MODEL_AND_TABLE_PHRASES), {"routing.py": owners})
    # The guard sees every phrase in its owner.
    assert {phrase for _, (phrase, _) in inside} == set(MODEL_AND_TABLE_PHRASES)
    assert elsewhere == []


FRAMESEL_ERRORS = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.FrameselError)}


def error_reraises(tree):
    """(function, line) of each ``except`` that catches a framesel error and raises."""
    for func, handler in in_functions(tree):
        if catches(handler, FRAMESEL_ERRORS) and any(isinstance(sub, ast.Raise) for sub in ast.walk(handler)):
            yield func, handler.lineno


def test_only_the_fileio_helper_reraises_a_framesel_error():
    assert [(name, func) for name, (func, _) in where(error_reraises)] == [("fileio.py", "in_file")]


def test_one_error_class_per_exit_code():
    codes = {name: getattr(errors, name).exit_code for name in FRAMESEL_ERRORS}
    assert sorted(codes.values()) == [1, 2, 3, 4], codes


COUNT_PHRASES = ("must be an integer >=", "must be >= 1")
POSITION_PHRASES = ("positions must be integers", "positions must lie in", "position must be an integer", "outside 1..")


def test_one_helper_states_the_count_rule_and_one_the_position_rule():
    for helper, phrases, seen in (
        ("_count", COUNT_PHRASES, {"must be an integer >="}),
        ("_position_index", POSITION_PHRASES, {"positions must be integers", "positions must lie in"}),
    ):
        inside, elsewhere = outside(lambda node: rule_raises(node, phrases), {"pool.py": [top(SOURCES["pool.py"], helper)]})
        # The guard sees the helper's own messages.
        assert {phrase for _, (phrase, _) in inside} == seen
        assert elsewhere == [], helper


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
    owners = {"pool.py": [top(SOURCES["pool.py"], "_finite")], "fileio.py": [top(SOURCES["fileio.py"], "all_of_kind")]}
    inside, elsewhere = outside(number_rule_sites, owners)
    # The guard sees the helper's test and its vectorised form's.
    assert {name for name, _ in inside} == set(owners)
    assert elsewhere == []


def test_embedding_set_has_one_construction_path():
    record = top(SOURCES["embeddings.py"], "EmbeddingSet")
    # The guard sees the checking constructor.
    assert top(record, "__post_init__")
    factories = [
        f.name
        for f in record.body
        if isinstance(f, ast.FunctionDef)
        for d in f.decorator_list
        if isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
    ]
    assert factories == []


def array_records(tree):
    """(name, passes ``eq=False``) of each ``@dataclass`` class in ``tree`` with a field annotated ``np.ndarray``."""
    for node in ast.walk(tree):
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
    records = dict(record for tree in SOURCES.values() for record in array_records(tree))
    # The guard sees the four records that hold arrays.
    assert {"EmbeddingSet", "QuestionTypeModel", "ClassifierEvaluation", "RandomInstance"} <= set(records)
    assert [name for name, eq_off in records.items() if not eq_off] == []


def in_place_divisions(tree):
    """(function, divisor) of each in-place division ``x /= d`` in ``tree``."""
    for func, sub in in_functions(tree):
        if isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.Div):
            yield func, ast.unparse(sub.value)


def test_one_representation_of_the_coverage_scaling():
    sites = sorted(in_place_divisions(SOURCES["selection.py"]))
    # The guard sees the division in F's helper and the one in greedy's gains.
    assert {func for func, _ in sites} == {"_terms", "_batched_gains"}
    assert sites == [("_batched_gains", "c.shape[0]"), ("_terms", "c.shape[0]")]


def cli_main_sites(tree):
    """Lines of ``tree`` that import ``main`` from ``framesel.cli`` or name ``cli.main``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "framesel.cli":
            if any(alias.name == "main" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "main" and ast.unparse(node.value).split(".")[-1] == "cli":
            yield node.lineno


def test_one_in_process_cli_runner():
    runner = top(TEST_TREES["conftest.py"], "run_cli")
    assert [a.arg for a in ast.walk(runner.args) if isinstance(a, ast.arg)] == ["args"]
    inside, elsewhere = outside(cli_main_sites, {"conftest.py": [runner]}, TEST_TREES)
    # The guard sees the runner's own call.
    assert inside
    assert elsewhere == []


def calls_of(tree, name):
    """Names of the functions in ``tree`` that call ``name``, bare or as an attribute, once per call."""
    for func, call in in_functions(tree):
        if isinstance(call, ast.Call) and ast.unparse(call.func).split(".")[-1] == name:
            yield func


def kernel_wraps(tree):
    """Names of the functions in ``tree`` that replace ``_coverage_sums``: by ``setattr`` or by assignment."""
    for func, sub in in_functions(tree):
        if isinstance(sub, ast.Call) and ast.unparse(sub.func).split(".")[-1] == "setattr":
            named = [a.value for a in sub.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        elif isinstance(sub, ast.Assign):
            named = [ast.unparse(t) for t in sub.targets]
        else:
            continue
        if any(n.split(".")[-1] == "_coverage_sums" for n in named):
            yield func


def test_one_greedy_loop_and_one_kernel_wrap():
    # The guard sees the loop and the one wrapper.
    assert top(SOURCES["selection.py"], "_greedy_steps")
    assert where(lambda tree: calls_of(tree, "_greedy_steps")) == [("selection.py", "select")]
    assert where(kernel_wraps, TEST_TREES) == [("test_selection.py", "_count_row_sums")]
    assert where(lambda tree: calls_of(tree, "_count_row_sums"), TEST_TREES) == [
        ("test_selection.py", "test_skip_engages_on_scene_structured_rows")
    ]
