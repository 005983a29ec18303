"""End-to-end CLI behavior: files, stdout documents, exit codes.

Each error exit's code and stderr line is pinned in ``test_error_lines.py``;
the error-path tests here check something besides that line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framesel as fs
from framesel import cli, oracle
from conftest import HEADER, read_json_file, run_checked, run_cli, unit_rows, write_fixture_manifest
from reference import ref_uniform_positions
from test_oracle import BROKEN_EVALUATORS, CHECKS

SRC = Path(fs.__file__).resolve().parents[1]


def run_cli_process(args):
    """Run the CLI as its own ``python -m framesel.cli`` process; returns (code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "framesel.cli", *map(str, args)], env=env, capture_output=True, timeout=120
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


@pytest.fixture
def fixture_manifest(cli_inputs):
    """Three candidates with raw_relu scores [0.2, 0.9, 0.5]."""
    return cli_inputs / "manifest.json"


@pytest.fixture
def routing_files(cli_inputs):
    """A trained model file and a routing table mapping count to relevance_oriented."""
    return cli_inputs / "model.json", cli_inputs / "routing.json"


class TestPool:
    def test_writes_manifest_file(self, tmp_path):
        out = tmp_path / "pool.json"
        code, stdout, stderr = run_cli(["pool", "--fps", 2, "--frames", 10, "--out", out])
        assert (code, stderr) == (0, "")
        assert "wrote" in stdout
        doc = read_json_file(out)
        assert doc["seconds"] == [0, 1, 2, 3, 4]

    def test_downsampled_pool(self):
        code, stdout, _ = run_cli(["pool", "--fps", 25, "--frames", 30000])
        doc = json.loads(stdout)
        assert code == 0 and len(doc["seconds"]) == 1000 and doc["seconds"][-1] == 1199

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["pool", "--fps", 23.976, "--frames", 500000, "--out", a, "--quiet"])
        run_cli(["pool", "--fps", 23.976, "--frames", 500000, "--out", b, "--quiet"])
        assert a.read_bytes() == b.read_bytes()


class TestSelect:
    def test_relevance_only_top_two(self, fixture_manifest, tmp_path):
        out = tmp_path / "sel.json"
        code, _, stderr = run_cli(
            [
                "select", "--manifest", fixture_manifest, "--preset", "relevance_only",
                "--k", 2, "--out", out, "--quiet",
            ]
        )
        assert (code, stderr) == (0, "")
        doc = read_json_file(out)
        assert doc["positions"] == [2, 3]
        assert doc["preset"]["name"] == "relevance_only"
        assert doc["budget"] == 2

    def test_lazy_engine_output_is_byte_identical(self, fixture_manifest, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["select", "--manifest", fixture_manifest, "--preset", "coverage_oriented", "--k", 2, "--quiet"]
        assert run_cli(base + ["--out", a]) == (0, "", "")
        assert run_cli(base + ["--engine", "lazy", "--out", b]) == (0, "", "")
        assert a.read_bytes() == b.read_bytes()

    def test_auto_preset_records_routed_preset(self, fixture_manifest, routing_files, tmp_path, monkeypatch):
        model, routing = routing_files
        question = ["--model", model, "--routing", routing, "--question", "how many red cars appear in total"]
        out = tmp_path / "sel.json"
        runs = []
        run_selection = cli._run_selection

        def recording(*args, **kwargs):
            runs.append(run_selection(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "_run_selection", recording)
        code, _, stderr = run_cli(
            ["select", "--manifest", fixture_manifest, "--preset", "auto", *question, "--k", 2, "--out", out, "--quiet"]
        )
        assert (code, stderr) == (0, "")
        doc = read_json_file(out)
        assert doc["preset"]["name"] == "relevance_oriented"
        assert doc["preset"]["alpha"] == 1.0 and doc["preset"]["beta"] == 0.5
        # The run record names the type that ``route`` prints for the question.
        code, stdout, _ = run_cli(["route", *question])
        assert code == 0 and [run.qtype for run in runs] == [json.loads(stdout)["type"]]

    def test_auto_preset_type_bypass(self, fixture_manifest, routing_files, tmp_path):
        _, routing = routing_files
        out = tmp_path / "sel.json"
        code, _, _ = run_cli(
            [
                "select", "--manifest", fixture_manifest, "--preset", "auto",
                "--routing", routing, "--type", "needle", "--k", 1, "--out", out, "--quiet",
            ]
        )
        assert code == 0
        assert read_json_file(out)["preset"]["name"] == "relevance_only"

    def test_unknown_preset_lists_the_choices_in_cli_order(self):
        code, _, stderr = run_cli(["select", "--manifest", "m.json", "--preset", "bogus"])
        assert code == 4 and stderr.startswith("error:4:argument --preset: invalid choice: 'bogus'")
        choices = ("relevance_only", "coverage_only", "relevance_oriented", "coverage_oriented", "auto")
        at = [stderr.index(f"{name}'") for name in choices]
        assert at == sorted(at)

    def test_result_loadable_by_library(self, fixture_manifest, tmp_path):
        out = tmp_path / "sel.json"
        run_cli(
            ["select", "--manifest", fixture_manifest, "--preset", "coverage_only",
             "--k", 2, "--out", out, "--quiet"]
        )
        result = fs.read_selection_result(out)
        assert len(result.positions) == 2
        assert result.video_id == "fixture"


class TestCompare:
    def test_greedy_dominates_uniform(self, fixture_manifest, tmp_path):
        out = tmp_path / "cmp.json"
        code, _, _ = run_cli(
            ["compare", "--manifest", fixture_manifest, "--preset", "coverage_oriented",
             "--k", 2, "--out", out, "--quiet"]
        )
        assert code == 0
        doc = read_json_file(out)
        assert doc["greedy"]["objective"] >= doc["uniform"]["objective"] - 1e-9
        assert doc["uniform"]["positions"] == list(ref_uniform_positions(3, 2))
        for key in ("relevance", "coverage", "objective"):
            assert doc["delta"][key] == pytest.approx(
                doc["greedy"][key] - doc["uniform"][key], abs=1e-12
            )

    def test_duplicate_cluster_coverage_gap(self, tmp_path):
        # one dense duplicate cluster plus isolated outliers: uniform wastes
        # picks inside the cluster, greedy covers the outliers too
        sem = np.array(
            [[1.0, 0.0, 0.0]] * 6 + [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        manifest = write_fixture_manifest(
            tmp_path,
            unit_rows(np.random.default_rng(0), 8, 4),
            sem,
            np.array([[1.0, 0.0, 0.0, 0.0]]),
        )
        out = tmp_path / "cmp.json"
        code, _, _ = run_cli(
            ["compare", "--manifest", manifest, "--preset", "coverage_only",
             "--k", 3, "--out", out, "--quiet"]
        )
        assert code == 0
        doc = read_json_file(out)
        assert doc["greedy"]["coverage"] > doc["uniform"]["coverage"]

    def test_budget_one_uniform_row_is_the_first_position(self, fixture_manifest):
        code, stdout, _ = run_cli(["compare", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 1])
        assert code == 0
        doc = json.loads(stdout)
        assert doc["uniform"]["positions"] == list(ref_uniform_positions(3, 1)) == [1]
        assert doc["greedy"]["positions"] == [2]

    @pytest.mark.parametrize("preset", fs.PRESET_NAMES)
    @pytest.mark.parametrize("extra", [[], ["--normalize-coverage", "--lambda", 0.25]], ids=["default", "normalized"])
    def test_rows_are_objective_terms(self, preset, extra, tmp_path):
        # each row is (R, C, F) of its positions, evaluated once
        manifest = write_fixture_manifest(
            tmp_path, unit_rows(np.random.default_rng(3), 12, 4), unit_rows(np.random.default_rng(4), 12, 5),
            np.array([[1.0, 0.0, 0.0, 0.0]]),
        )
        code, stdout, _ = run_cli(["compare", "--manifest", manifest, "--preset", preset, "--k", 4, *extra])
        assert code == 0
        doc = json.loads(stdout)
        embeddings = fs.load_embeddings(manifest)
        r, sim = fs.relevance_scores(embeddings), fs.similarity_matrix(embeddings)
        preset = fs.make_preset(preset, 0.25) if extra else fs.make_preset(preset)
        for key in ("greedy", "uniform"):
            row = doc[key]
            terms = fs.objective_terms(row["positions"], r, sim, preset, bool(extra))
            assert (row["relevance"], row["coverage"], row["objective"]) == terms


class TestOracleAndProps:
    def test_oracle_stream_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        base = ["oracle", "--n", 8, "--k", 3, "--trials", 25, "--seed", 5, "--quiet"]
        assert run_cli(base + ["--out", a]) == (0, "", "")
        assert run_cli(base + ["--out", b]) == (0, "", "")
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 25
        for line in lines:
            doc = json.loads(line)
            assert doc["ratio"] >= fs.GREEDY_RATIO_BOUND - 1e-9
            assert doc["n"] <= 8 and doc["k"] <= 3

    def test_props_pass(self, tmp_path):
        out = tmp_path / "props.json"
        code, _, stderr = run_cli(["props", "--trials", 60, "--seed", 1, "--out", out, "--quiet"])
        assert (code, stderr) == (0, "")
        doc = read_json_file(out)
        assert doc["passed"] is True and doc["failures"] == 0
        assert doc["checks"]["submodularity"] == 60

    def test_props_failure_writes_the_summary_then_one_error_line(self, monkeypatch):
        _, name, broken, seed, trials, failures, first = BROKEN_EVALUATORS[-1]
        monkeypatch.setattr(oracle, name, broken)
        code, stdout, stderr = run_cli(["props", "--trials", trials, "--seed", seed])
        doc = {
            "trials": trials,
            "checks": dict.fromkeys(CHECKS, trials),
            "failures": failures,
            "first_counterexample": first,
            "passed": False,
        }
        assert (code, stdout, stderr) == (
            1, json.dumps(doc, separators=(",", ":")) + "\n", f"error:1:property violation: {first}\n"
        )


class TestRoutingCommands:
    def test_route_question(self, routing_files, tmp_path):
        model, routing = routing_files
        code, stdout, _ = run_cli(
            ["route", "--model", model, "--routing", routing,
             "--question", "how many people appear"]
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["type"] == "count"
        assert doc["preset"]["name"] == "relevance_oriented"
        assert doc["preset"] == {
            "name": "relevance_oriented", "alpha": 1.0, "beta": 0.5, "lambda": 0.5,
        }

    def test_route_type_bypass(self, routing_files):
        _, routing = routing_files
        code, stdout, _ = run_cli(["route", "--routing", routing, "--type", "needle", "--lambda", 0.3])
        assert code == 0
        doc = json.loads(stdout)
        assert doc["type"] == "needle" and doc["preset"]["name"] == "relevance_only"

    def test_epochs_bound(self, routing_files, tmp_path):
        # README states the maximum; one past it is refused before --data is read.
        data = tmp_path / "train.tsv"
        assert run_cli(["train-classifier", "--data", data, "--epochs", 10_000, "--quiet"]) == (0, "", "")
        for path in (data, tmp_path / "missing.tsv"):
            assert run_checked(["train-classifier", "--data", path, "--epochs", 10_001])[:2] == (4, "")

    def test_repeated_declared_type_exits_four(self, routing_files, tmp_path):
        # the third class used to be trained with no examples and written out
        out = tmp_path / "repeated.json"
        argv = ["train-classifier", "--data", tmp_path / "train.tsv", "--types", "count,needle,count", "--out", out]
        assert run_checked(argv)[:2] == (4, "")
        assert not out.exists()

    def test_blank_accuracy_line_is_skipped(self, tmp_path):
        rows = ["count,0.5,0.9,0.2,0.1\n", "needle,0.9,0.5,0.2,0.1\n"]
        documents = []
        for name, text in (("plain.csv", HEADER + "".join(rows)), ("blank.csv", HEADER + "\n".join(rows))):
            (tmp_path / name).write_text(text, encoding="utf-8")
            code, stdout, stderr = run_cli(["fit-routing", "--accuracy", tmp_path / name])
            assert (code, stderr) == (0, "")
            documents.append(stdout)
        assert documents[0] == documents[1]

    def test_trained_model_file_round_trips(self, routing_files, tmp_path):
        model_path, _ = routing_files
        model = fs.read_model(model_path)
        again = tmp_path / "again.json"
        fs.write_model(model, again)
        assert again.read_bytes() == model_path.read_bytes()


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["train-classifier", "fit-routing", "route"])
    def test_stdout_document_equals_out_file(self, command, routing_files, tmp_path):
        model, routing = routing_files
        argv = {
            "train-classifier": ["--data", tmp_path / "train.tsv"],
            "fit-routing": ["--accuracy", tmp_path / "acc.csv"],
            "route": ["--model", model, "--routing", routing, "--question", "how many people appear"],
        }[command]
        code, document, stderr = run_cli([command, *argv])
        assert (code, stderr) == (0, "")
        out = tmp_path / "doc.json"
        code, wrote, stderr = run_cli([command, *argv, "--out", out])
        assert (code, stderr) == (0, "")
        assert out.read_bytes() == document.encode("utf-8")
        assert wrote.startswith("wrote ") and wrote.endswith(f" to {out}\n")
        assert wrote.count("\n") == 1

    def test_bare_file_name_lands_in_the_working_directory(self, fixture_manifest, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["select", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 2]
        code, document, stderr = run_cli(argv)
        assert (code, stderr) == (0, "")
        assert run_cli([*argv, "--out", "sel.json", "--quiet"]) == (0, "", "")
        assert (tmp_path / "sel.json").read_bytes() == document.encode("utf-8")
        assert not list(tmp_path.glob("*.tmp"))


class TestSimilarityOnlyWhenRead:
    """The N x N matrix is built only for compare or a preset with beta != 0."""

    @pytest.fixture
    def sim_calls(self, monkeypatch):
        calls = []

        def counting(es):
            calls.append(es.semantic.shape)
            return fs.similarity_matrix(es)

        monkeypatch.setattr(cli, "similarity_matrix", counting)
        return calls

    @pytest.mark.parametrize(
        ("command", "preset", "built"),
        [
            ("select", "relevance_only", 0),
            ("compare", "relevance_only", 1),
            ("select", "relevance_oriented", 1),
            ("select", "coverage_oriented", 1),
            ("select", "coverage_only", 1),
            ("compare", "coverage_oriented", 1),
        ],
    )
    def test_matrix_calls_per_command(self, command, preset, built, fixture_manifest, sim_calls):
        argv = [command, "--manifest", fixture_manifest, "--preset", preset, "--k", 2, "--quiet"]
        assert run_cli(argv) == (0, "", "")
        assert len(sim_calls) == built

    @pytest.mark.parametrize(("qtype", "built"), [("needle", 0), ("count", 1)])
    def test_routed_preset_decides(self, qtype, built, fixture_manifest, routing_files, sim_calls):
        # needle routes to relevance_only, count to relevance_oriented
        _, routing = routing_files
        argv = ["select", "--manifest", fixture_manifest, "--preset", "auto", "--routing", routing, "--type", qtype]
        code, stdout, stderr = run_cli([*argv, "--k", 2])
        assert (code, stderr) == (0, "")
        assert len(sim_calls) == built
        assert json.loads(stdout)["preset"]["beta"] == (0.0 if built == 0 else 0.5)

    def test_zero_norm_semantic_row_still_exits_two(self, fixture_manifest, tmp_path, sim_calls):
        path = tmp_path / "semantic.fsel"
        matrix = fs.read_embedding_file(path)
        matrix[1] = 0.0
        fs.write_embedding_file(path, matrix)
        argv = ["select", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 1]
        code, stdout, stderr = run_cli(argv)
        assert (code, stdout) == (2, "")
        assert stderr == "error:2:semantic row 1 has zero norm\n"
        assert sim_calls == []


class TestParserCache:
    """``main`` builds its parse tree once per process and looks commands up per call."""

    def test_replaced_command_is_the_one_that_runs(self, fixture_manifest, monkeypatch):
        argv = ["select", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 1, "--quiet"]
        assert run_cli(argv) == (0, "", "")
        seen = []
        monkeypatch.setattr(cli, "cmd_select", lambda args: seen.append((args.command, args.k)) or 0)
        assert run_cli(argv) == (0, "", "")
        assert seen == [("select", 1)]

    def test_usage_error_leaves_the_tree_usable(self, fixture_manifest):
        argv = ["select", "--manifest", fixture_manifest, "--preset", "coverage_oriented", "--k", 2]
        want = run_cli(argv)
        assert want[0] == 0
        for bad in (argv[:-1] + ["two"], argv[:3], ["select", "--manifest", fixture_manifest, "--preset", "best"]):
            assert run_checked(bad)[:2] == (4, "")
            assert run_cli(argv) == want

    def test_commands_back_to_back_give_the_bytes_of_separate_processes(self, fixture_manifest, tmp_path):
        pool = tmp_path / "pool.json"
        commands = [
            ["pool", "--fps", 2, "--frames", 10, "--out", pool],
            ["select", "--manifest", fixture_manifest, "--preset", "coverage_oriented", "--k", 2],
            ["compare", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 2],
            ["select", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 1],
            # A greedy state kept across calls would change this repeat.
            ["select", "--manifest", fixture_manifest, "--preset", "coverage_oriented", "--k", 2],
        ]
        together = [run_cli(argv) for argv in commands]
        pool_bytes = pool.read_bytes()
        pool.unlink()
        assert [run_cli_process(argv) for argv in commands] == together
        assert pool.read_bytes() == pool_bytes
        assert all(code == 0 for code, _, _ in together)

    @pytest.mark.parametrize("argv", [["--help"], ["select", "--help"]], ids=["framesel", "select"])
    def test_help_follows_columns_like_a_fresh_tree(self, argv, monkeypatch, capsys):
        assert run_cli(["pool", "--help"])[0] == 0
        pages = []
        for columns in ("50", "150"):
            monkeypatch.setenv("COLUMNS", columns)
            code, page, _ = run_cli(argv)
            assert code == 0
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv)
            assert capsys.readouterr().out == page
            pages.append(page)
        assert pages[0] != pages[1]

    def test_one_shot_process_gives_in_process_bytes(self, fixture_manifest, tmp_path):
        argv = ["select", "--manifest", fixture_manifest, "--preset", "relevance_oriented", "--k", 2]
        in_process = run_cli(argv)
        assert in_process[0] == 0
        assert run_cli_process(argv) == in_process
        out = tmp_path / "sel.json"
        assert run_cli_process([*argv, "--out", out, "--quiet"]) == (0, "", "")
        assert out.read_bytes() == in_process[1].encode("utf-8")
