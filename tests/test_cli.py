"""End-to-end CLI behavior: files, stdout documents, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framesel as fs
from framesel import cli
from conftest import read_json_file, rows_with_cosines, run_cli, unit_rows, write_fixture_manifest
from reference import ref_uniform_positions

HEADER = "type,relevance_only,relevance_oriented,coverage_oriented,coverage_only\n"
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
def fixture_manifest(tmp_path, rng):
    """Three candidates with raw_relu scores [0.2, 0.9, 0.5]."""
    return write_fixture_manifest(
        tmp_path,
        rows_with_cosines([0.2, 0.9, 0.5]),
        unit_rows(rng, 3, 4),
        np.array([[1.0, 0.0]]),
    )


@pytest.fixture
def routing_files(tmp_path):
    """A trained model file and a routing table mapping count to relevance_oriented."""
    data = tmp_path / "train.tsv"
    lines = []
    for i in range(30):
        lines.append(f"count\thow many items appear {i}")
        lines.append(f"needle\tfind the exact moment {i}")
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = tmp_path / "model.json"
    assert run_cli(["train-classifier", "--data", data, "--out", model, "--quiet"]) == (0, "", "")

    accuracy = tmp_path / "acc.csv"
    accuracy.write_text(
        HEADER + "count,0.5,0.9,0.2,0.1\nneedle,0.9,0.5,0.2,0.1\n", encoding="utf-8"
    )
    routing = tmp_path / "routing.json"
    assert run_cli(["fit-routing", "--accuracy", accuracy, "--out", routing, "--quiet"]) == (0, "", "")
    return model, routing


class TestPool:
    def test_writes_manifest_file(self, tmp_path, capsys):
        out = tmp_path / "pool.json"
        code, stdout, stderr = run_cli(
            ["pool", "--fps", 2, "--frames", 10, "--out", out], capsys
        )
        assert (code, stderr) == (0, "")
        assert "wrote" in stdout
        doc = read_json_file(out)
        assert doc["seconds"] == [0, 1, 2, 3, 4]

    def test_stdout_mode_prints_the_manifest(self, capsys):
        code, stdout, _ = run_cli(["pool", "--fps", 2, "--frames", 10], capsys)
        assert code == 0
        assert json.loads(stdout)["seconds"] == [0, 1, 2, 3, 4]

    def test_downsampled_pool(self, capsys):
        code, stdout, _ = run_cli(["pool", "--fps", 25, "--frames", 30000], capsys)
        doc = json.loads(stdout)
        assert code == 0 and len(doc["seconds"]) == 1000 and doc["seconds"][-1] == 1199

    def test_zero_duration_exits_four(self, capsys):
        code, _, stderr = run_cli(["pool", "--fps", 30, "--frames", 15], capsys)
        assert code == 4
        assert stderr.startswith("error:4:")
        assert stderr.count("\n") == 1

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["pool", "--fps", 23.976, "--frames", 500000, "--out", a, "--quiet"])
        run_cli(["pool", "--fps", 23.976, "--frames", 500000, "--out", b, "--quiet"])
        assert a.read_bytes() == b.read_bytes()


class TestSelect:
    def test_relevance_only_top_two(self, fixture_manifest, tmp_path, capsys):
        out = tmp_path / "sel.json"
        code, _, stderr = run_cli(
            [
                "select", "--manifest", fixture_manifest, "--preset", "relevance_only",
                "--k", 2, "--out", out, "--quiet",
            ],
            capsys,
        )
        assert (code, stderr) == (0, "")
        doc = read_json_file(out)
        assert doc["positions"] == [2, 3]
        assert doc["preset"]["name"] == "relevance_only"
        assert doc["budget"] == 2

    def test_zero_budget_exits_four(self, fixture_manifest, capsys):
        code, _, stderr = run_cli(
            ["select", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 0],
            capsys,
        )
        assert code == 4 and stderr.startswith("error:4:")

    def test_lazy_engine_output_is_byte_identical(self, fixture_manifest, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["select", "--manifest", fixture_manifest, "--preset", "coverage_oriented", "--k", 2, "--quiet"]
        assert run_cli(base + ["--out", a]) == (0, "", "")
        assert run_cli(base + ["--engine", "lazy", "--out", b]) == (0, "", "")
        assert a.read_bytes() == b.read_bytes()

    def test_auto_preset_records_routed_preset(self, fixture_manifest, routing_files, tmp_path, capsys):
        model, routing = routing_files
        out = tmp_path / "sel.json"
        code, _, stderr = run_cli(
            [
                "select", "--manifest", fixture_manifest, "--preset", "auto",
                "--model", model, "--routing", routing,
                "--question", "how many red cars appear in total",
                "--k", 2, "--out", out, "--quiet",
            ],
            capsys,
        )
        assert (code, stderr) == (0, "")
        doc = read_json_file(out)
        assert doc["preset"]["name"] == "relevance_oriented"
        assert doc["preset"]["alpha"] == 1.0 and doc["preset"]["beta"] == 0.5

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

    def test_auto_without_routing_exits_four(self, fixture_manifest, capsys):
        code, _, stderr = run_cli(
            ["select", "--manifest", fixture_manifest, "--preset", "auto", "--k", 1], capsys
        )
        assert code == 4 and stderr.startswith("error:4:")

    def test_corrupt_manifest_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, stderr = run_cli(
            ["select", "--manifest", bad, "--preset", "relevance_only", "--k", 1], capsys
        )
        assert code == 2 and stderr.startswith("error:2:")

    def test_row_mismatch_exits_three(self, fixture_manifest, tmp_path, rng, capsys):
        fs.write_embedding_file(tmp_path / "semantic.fsel", rng.normal(size=(2, 4)))
        code, _, stderr = run_cli(
            ["select", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 1],
            capsys,
        )
        assert code == 3 and stderr.startswith("error:3:")

    def test_unknown_flag_exits_four(self, capsys):
        code, _, stderr = run_cli(["select", "--bogus", "1"], capsys)
        assert code == 4 and stderr.startswith("error:4:")

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

    def test_full_budget_rows_are_identical(self, fixture_manifest, tmp_path):
        out = tmp_path / "cmp.json"
        run_cli(
            ["compare", "--manifest", fixture_manifest, "--preset", "relevance_oriented",
             "--k", 3, "--out", out, "--quiet"]
        )
        doc = read_json_file(out)
        assert doc["greedy"] == doc["uniform"]
        assert doc["delta"] == {"relevance": 0.0, "coverage": 0.0, "objective": 0.0}

    def test_duplicate_cluster_coverage_gap(self, tmp_path, capsys):
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
             "--k", 3, "--out", out, "--quiet"],
            capsys,
        )
        assert code == 0
        doc = read_json_file(out)
        assert doc["greedy"]["coverage"] > doc["uniform"]["coverage"]


class TestOracleAndProps:
    def test_oracle_stream_and_determinism(self, tmp_path, capsys):
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

    def test_oracle_too_large_exits_four(self, capsys):
        code, _, stderr = run_cli(["oracle", "--n", 25], capsys)
        assert code == 4 and stderr.startswith("error:4:")

    def test_props_pass(self, tmp_path, capsys):
        out = tmp_path / "props.json"
        code, _, stderr = run_cli(
            ["props", "--trials", 60, "--seed", 1, "--out", out, "--quiet"], capsys
        )
        assert (code, stderr) == (0, "")
        doc = read_json_file(out)
        assert doc["passed"] is True and doc["failures"] == 0
        assert doc["checks"]["submodularity"] == 60


class TestRoutingCommands:
    def test_fit_routing_missing_column_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "acc.csv"
        bad.write_text(
            "type,relevance_only,relevance_oriented,coverage_oriented\ncount,0.5,0.9,0.2\n",
            encoding="utf-8",
        )
        code, _, stderr = run_cli(["fit-routing", "--accuracy", bad], capsys)
        assert code == 2 and stderr.startswith("error:2:")

    def test_route_question(self, routing_files, tmp_path, capsys):
        model, routing = routing_files
        code, stdout, _ = run_cli(
            ["route", "--model", model, "--routing", routing,
             "--question", "how many people appear"],
            capsys,
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["type"] == "count"
        assert doc["preset"]["name"] == "relevance_oriented"
        assert doc["preset"] == {
            "name": "relevance_oriented", "alpha": 1.0, "beta": 0.5, "lambda": 0.5,
        }

    def test_route_type_bypass(self, routing_files, capsys):
        _, routing = routing_files
        code, stdout, _ = run_cli(
            ["route", "--routing", routing, "--type", "needle", "--lambda", 0.3], capsys
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["type"] == "needle" and doc["preset"]["name"] == "relevance_only"

    def test_route_without_inputs_exits_four(self, routing_files, capsys):
        _, routing = routing_files
        code, _, stderr = run_cli(["route", "--routing", routing], capsys)
        assert code == 4 and stderr.startswith("error:4:")

    def test_epochs_bound(self, routing_files, tmp_path, capsys):
        # README states the maximum; one past it is refused before --data is read.
        data = tmp_path / "train.tsv"
        assert run_cli(["train-classifier", "--data", data, "--epochs", 10_000, "--quiet"], capsys) == (0, "", "")
        for path in (data, tmp_path / "missing.tsv"):
            code, _, stderr = run_cli(["train-classifier", "--data", path, "--epochs", 10_001], capsys)
            assert code == 4 and stderr.startswith("error:4:") and stderr.count("\n") == 1

    def test_repeated_declared_type_exits_four(self, routing_files, tmp_path, capsys):
        # the third class used to be trained with no examples and written out
        out = tmp_path / "repeated.json"
        argv = ["train-classifier", "--data", tmp_path / "train.tsv", "--types", "count,needle,count", "--out", out]
        code, stdout, stderr = run_cli(argv, capsys)
        assert (code, stdout) == (4, "")
        assert stderr.startswith("error:4:") and stderr.count("\n") == 1
        assert not out.exists()

    def test_trained_model_file_round_trips(self, routing_files, tmp_path):
        model_path, _ = routing_files
        model = fs.read_model(model_path)
        again = tmp_path / "again.json"
        fs.write_model(model, again)
        assert again.read_bytes() == model_path.read_bytes()


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["train-classifier", "fit-routing", "route"])
    def test_stdout_document_equals_out_file(self, command, routing_files, tmp_path, capsys):
        model, routing = routing_files
        argv = {
            "train-classifier": ["--data", tmp_path / "train.tsv"],
            "fit-routing": ["--accuracy", tmp_path / "acc.csv"],
            "route": ["--model", model, "--routing", routing, "--question", "how many people appear"],
        }[command]
        code, document, stderr = run_cli([command, *argv], capsys)
        assert (code, stderr) == (0, "")
        out = tmp_path / "doc.json"
        code, wrote, stderr = run_cli([command, *argv, "--out", out], capsys)
        assert (code, stderr) == (0, "")
        assert out.read_bytes() == document.encode("utf-8")
        assert wrote.startswith("wrote ") and wrote.endswith(f" to {out}\n")
        assert wrote.count("\n") == 1


class TestSeedFlag:
    @pytest.mark.parametrize("command", ["select", "route"])
    def test_seed_is_rejected_outside_randomized_commands(self, command, fixture_manifest, routing_files, capsys):
        _, routing = routing_files
        argv = {
            "select": ["--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 1],
            "route": ["--routing", routing, "--type", "needle"],
        }[command]
        assert run_cli([command, *argv, "--quiet"], capsys)[0] == 0
        code, _, stderr = run_cli([command, *argv, "--seed", 1], capsys)
        assert code == 4 and stderr.startswith("error:4:") and stderr.count("\n") == 1

    def test_randomized_commands_take_a_seed(self, capsys):
        assert run_cli(["oracle", "--n", 4, "--k", 2, "--trials", 3, "--seed", 1, "--quiet"], capsys) == (0, "", "")
        assert run_cli(["props", "--trials", 3, "--seed", 1, "--quiet"], capsys) == (0, "", "")


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["relevance", "semantic", "query"])
    def test_non_finite_embedding_exits_two(self, name, bad, fixture_manifest, tmp_path, capsys):
        path = tmp_path / f"{name}.fsel"
        matrix = fs.read_embedding_file(path)
        matrix[-1, 0] = bad
        fs.write_embedding_file(path, matrix)
        code, stdout, stderr = run_cli(
            ["select", "--manifest", fixture_manifest, "--preset", "coverage_oriented", "--k", 2], capsys
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:2:") and stderr.count("\n") == 1

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["select", "route"])
    def test_non_finite_lambda_exits_four(self, command, lam, fixture_manifest, routing_files, capsys):
        # needle routes to relevance_only, a preset that ignores lambda
        _, routing = routing_files
        argv = {
            "select": ["--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 1],
            "route": ["--routing", routing, "--type", "needle"],
        }[command]
        code, stdout, stderr = run_cli([command, *argv, "--lambda", lam], capsys)
        assert (code, stdout) == (4, "")
        assert stderr.startswith("error:4:") and stderr.count("\n") == 1

    @pytest.mark.parametrize(
        ("preset", "bad"),
        [("relevance_oriented", "NaN"), ("relevance_oriented", "Infinity"), ("coverage_only", "-Infinity")],
    )
    def test_non_finite_routing_accuracy_exits_two(self, preset, bad, routing_files, capsys):
        # count routes to relevance_oriented; NaN and Infinity there, or
        # -Infinity elsewhere, still pass the "maps to its best preset" check
        _, routing = routing_files
        doc = read_json_file(routing)
        doc["provenance"]["count"][preset] = float(bad)
        routing.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout, stderr = run_cli(["route", "--routing", routing, "--type", "count"], capsys)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:2:") and stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), float("-inf"), True, "1.0", None, 10**400],
        ids=["NaN", "Infinity", "-Infinity", "true", "string", "null", "int400"],
    )
    def test_non_finite_model_weight_exits_two(self, bad, routing_files, capsys):
        model, routing = routing_files
        doc = read_json_file(model)
        doc["weights"][0] = bad
        model.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["route", "--routing", routing, "--model", model, "--question", "how many items appear"]
        code, stdout, stderr = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        assert stderr == f"error:2:{model}: weights must be finite numbers\n"

    @pytest.mark.parametrize("bad", ["x", True, 1.0])
    def test_non_integer_vocabulary_index_exits_two(self, bad, routing_files, capsys):
        # in place of index 1, a string used to raise a raw TypeError in
        # sorting, and True or 1.0 compared equal to 1 and were accepted
        model, routing = routing_files
        doc = read_json_file(model)
        token = next(t for t, i in doc["vocabulary"].items() if i == 1)
        doc["vocabulary"][token] = bad
        model.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["route", "--routing", routing, "--model", model, "--question", "how many items appear"]
        code, stdout, stderr = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:2:") and stderr.count("\n") == 1
        assert "Traceback" not in stderr

class TestReaderRules:
    """Each input-decoding rule refuses its input with one error:2: line."""

    @staticmethod
    def _one_error_line(argv, capsys):
        code, stdout, stderr = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:2:") and stderr.count("\n") == 1
        return stderr

    def test_manifest_that_is_a_json_array(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]", encoding="utf-8")
        argv = ["select", "--manifest", manifest, "--preset", "relevance_only", "--k", 1]
        assert self._one_error_line(argv, capsys) == f"error:2:{manifest}: not a JSON object\n"

    @pytest.mark.parametrize(("preset", "bad"), [("relevance_oriented", 1.5), ("coverage_only", -3.0)])
    def test_routing_accuracy_outside_unit_interval(self, preset, bad, routing_files, capsys):
        # count still maps to relevance_oriented, its best preset
        _, routing = routing_files
        doc = read_json_file(routing)
        doc["provenance"]["count"][preset] = bad
        routing.write_text(json.dumps(doc), encoding="utf-8")
        stderr = self._one_error_line(["route", "--routing", routing, "--type", "count"], capsys)
        assert "finite numbers in [0, 1]" in stderr

    def test_manifest_second_that_is_a_bool(self, fixture_manifest, capsys):
        # true == 1, so only the kind rule tells it from the second it stands for
        doc = read_json_file(fixture_manifest)
        assert doc["seconds"][1] == 1
        doc["seconds"][1] = True
        fixture_manifest.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["select", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 1]
        assert self._one_error_line(argv, capsys) == f"error:2:{fixture_manifest}: seconds must be integers\n"

    def test_model_type_that_is_not_a_string(self, routing_files, capsys):
        model, routing = routing_files
        doc = read_json_file(model)
        doc["types"][1] = 5
        model.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["route", "--routing", routing, "--model", model, "--question", "how many items appear"]
        assert self._one_error_line(argv, capsys) == f"error:2:{model}: types must be strings\n"

    @pytest.mark.parametrize("unknown", [False, True], ids=["array-row", "unknown-preset"])
    def test_routing_provenance_row(self, unknown, routing_files, capsys):
        # an unknown preset's cell used to load and be written back on refit
        _, routing = routing_files
        doc = read_json_file(routing)
        row = doc["provenance"]["needle"]
        doc["provenance"]["needle"] = {**row, "bogus": 0.9} if unknown else list(row.values())
        routing.write_text(json.dumps(doc), encoding="utf-8")
        self._one_error_line(["route", "--routing", routing, "--type", "count"], capsys)

    @pytest.mark.parametrize(("command", "flag"), [("train-classifier", "--data"), ("fit-routing", "--accuracy")])
    def test_invalid_utf8_text(self, command, flag, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_bytes(HEADER.encode("utf-8") + b"count\thow many \xff\n")
        stderr = self._one_error_line([command, flag, path], capsys)
        assert stderr.startswith(f"error:2:{path}: not valid UTF-8 (")


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
    def test_matrix_calls_per_command(self, command, preset, built, fixture_manifest, sim_calls, capsys):
        argv = [command, "--manifest", fixture_manifest, "--preset", preset, "--k", 2, "--quiet"]
        assert run_cli(argv, capsys) == (0, "", "")
        assert len(sim_calls) == built

    @pytest.mark.parametrize(("qtype", "built"), [("needle", 0), ("count", 1)])
    def test_routed_preset_decides(self, qtype, built, fixture_manifest, routing_files, sim_calls, capsys):
        # needle routes to relevance_only, count to relevance_oriented
        _, routing = routing_files
        argv = ["select", "--manifest", fixture_manifest, "--preset", "auto", "--routing", routing, "--type", qtype]
        code, stdout, stderr = run_cli([*argv, "--k", 2], capsys)
        assert (code, stderr) == (0, "")
        assert len(sim_calls) == built
        assert json.loads(stdout)["preset"]["beta"] == (0.0 if built == 0 else 0.5)

    def test_zero_norm_semantic_row_still_exits_two(self, fixture_manifest, tmp_path, sim_calls, capsys):
        path = tmp_path / "semantic.fsel"
        matrix = fs.read_embedding_file(path)
        matrix[1] = 0.0
        fs.write_embedding_file(path, matrix)
        argv = ["select", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 1]
        code, stdout, stderr = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        assert stderr == "error:2:semantic row 1 has zero norm\n"
        assert sim_calls == []


class TestParserCache:
    """``main`` builds its parse tree once per process and looks commands up per call."""

    def test_replaced_command_is_the_one_that_runs(self, fixture_manifest, monkeypatch, capsys):
        argv = ["select", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 1, "--quiet"]
        assert run_cli(argv, capsys) == (0, "", "")
        seen = []
        monkeypatch.setattr(cli, "cmd_select", lambda args: seen.append((args.command, args.k)) or 0)
        assert run_cli(argv, capsys) == (0, "", "")
        assert seen == [("select", 1)]

    def test_usage_error_leaves_the_tree_usable(self, fixture_manifest, capsys):
        argv = ["select", "--manifest", fixture_manifest, "--preset", "coverage_oriented", "--k", 2]
        want = run_cli(argv, capsys)
        assert want[0] == 0
        for bad in (argv[:-1] + ["two"], argv[:3], ["select", "--manifest", fixture_manifest, "--preset", "best"]):
            code, stdout, stderr = run_cli(bad, capsys)
            assert (code, stdout) == (4, "")
            assert stderr.startswith("error:4:") and stderr.count("\n") == 1
            assert run_cli(argv, capsys) == want

    def test_commands_back_to_back_give_the_bytes_of_separate_processes(self, fixture_manifest, tmp_path, capsys):
        pool = tmp_path / "pool.json"
        commands = [
            ["pool", "--fps", 2, "--frames", 10, "--out", pool],
            ["select", "--manifest", fixture_manifest, "--preset", "coverage_oriented", "--k", 2],
            ["compare", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 2],
            ["select", "--manifest", fixture_manifest, "--preset", "relevance_only", "--k", 1],
        ]
        together = [run_cli(argv, capsys) for argv in commands]
        pool_bytes = pool.read_bytes()
        pool.unlink()
        assert [run_cli_process(argv) for argv in commands] == together
        assert pool.read_bytes() == pool_bytes
        assert all(code == 0 for code, _, _ in together)

    @pytest.mark.parametrize("argv", [["--help"], ["select", "--help"]], ids=["framesel", "select"])
    def test_help_follows_columns_like_a_fresh_tree(self, argv, monkeypatch, capsys):
        assert run_cli(["pool", "--help"], capsys)[0] == 0
        pages = []
        for columns in ("50", "150"):
            monkeypatch.setenv("COLUMNS", columns)
            code, page, _ = run_cli(argv, capsys)
            assert code == 0
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv)
            assert capsys.readouterr().out == page
            pages.append(page)
        assert pages[0] != pages[1]

    def test_one_shot_process_gives_in_process_bytes(self, fixture_manifest, tmp_path, capsys):
        argv = ["select", "--manifest", fixture_manifest, "--preset", "relevance_oriented", "--k", 2]
        in_process = run_cli(argv, capsys)
        assert in_process[0] == 0
        assert run_cli_process(argv) == in_process
        out = tmp_path / "sel.json"
        assert run_cli_process([*argv, "--out", out, "--quiet"]) == (0, "", "")
        assert out.read_bytes() == in_process[1].encode("utf-8")


def test_every_error_line_is_machine_parseable(tmp_path, capsys):
    failing_invocations = [
        ["pool", "--fps", 30, "--frames", 15],
        ["select", "--manifest", tmp_path / "missing.json", "--preset", "relevance_only"],
        ["oracle", "--n", 25],
        ["fit-routing", "--accuracy", tmp_path / "missing.csv"],
        ["nonsense-subcommand"],
        ["select"],
    ]
    for argv in failing_invocations:
        code, _, stderr = run_cli(argv, capsys)
        assert code in (1, 2, 3, 4), argv
        assert stderr.startswith(f"error:{code}:"), (argv, stderr)
        assert stderr.strip().count("\n") == 0, argv
