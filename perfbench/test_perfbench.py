"""Tests of the benchmark itself: output checks, tracer, generator, metric lists."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from checks import failed_samples  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

import framesel  # noqa: E402
from framesel import cli  # noqa: E402


@pytest.fixture(scope="module")
def qa(tmp_path_factory):
    """qa-burst inputs for seed 0 and the real output of its first two requests."""
    tmp = tmp_path_factory.mktemp("qa")
    inputs = gen.generate("qa-burst", 0, tmp / "inputs")
    outputs = {}
    for request in inputs.requests[:2]:
        out = tmp / f"{request.index}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(request.argv + ["--out", str(out)]) == 0
        outputs[request.index] = out.read_bytes()
    return inputs, outputs


def _sample(index: int, data: bytes, code: int = 0, stderr: str = "") -> list:
    return [index, 1.0, code, stderr, hashlib.sha256(data).hexdigest(), False]


def _failed(inputs, outputs, pinned=None, **sample) -> int:
    samples = [_sample(i, data, **sample) for i, data in outputs.items()]
    return failed_samples(inputs, samples, outputs, pinned)[0]


def _perturb(data: bytes, edit) -> bytes:
    doc = json.loads(data)
    edit(doc)
    return (json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


def test_real_outputs_pass(qa):
    inputs, outputs = qa
    assert _failed(inputs, outputs) == 0


def _shift_first_position(doc):
    doc["positions"][0] += 1


def _swap_gains(doc):
    doc["gains"][0], doc["gains"][-1] = doc["gains"][-1], doc["gains"][0]


def _drop_position(doc):
    for key in ("positions", "seconds", "frame_indices", "gains"):
        doc[key].pop()


@pytest.mark.parametrize(
    "edit",
    [
        _shift_first_position,
        _swap_gains,
        _drop_position,
        lambda doc: doc["seconds"].__setitem__(0, doc["seconds"][0] + 1),
        lambda doc: doc["frame_indices"].__setitem__(-1, doc["frame_indices"][-1] - 1),
        lambda doc: doc.__setitem__("objective", doc["objective"] * (1 + 1e-6)),
        lambda doc: doc["preset"].__setitem__("name", "coverage_only" if doc["preset"]["name"] != "coverage_only" else "relevance_only"),
        lambda doc: doc.__setitem__("video_id", "other"),
    ],
)
def test_perturbed_output_is_a_failure(qa, edit):
    inputs, outputs = qa
    index, data = next(iter(outputs.items()))
    bad = {index: _perturb(data, edit)}
    assert _failed(inputs, bad) == 1


def test_non_canonical_bytes_are_a_failure(qa):
    inputs, outputs = qa
    index, data = next(iter(outputs.items()))
    assert _failed(inputs, {index: data.rstrip(b"\n") + b" \n"}) == 1


def test_exit_code_stderr_rerun_and_pin_are_failures(qa):
    inputs, outputs = qa
    assert _failed(inputs, outputs, code=1) == len(outputs)
    assert _failed(inputs, outputs, stderr="error:2:bad") == len(outputs)
    pins = ["0" * 64] * len(inputs.requests)
    assert _failed(inputs, outputs, pinned=pins) == len(outputs)
    index, data = next(iter(outputs.items()))
    rerun = [_sample(index, data), [index, 1.0, 0, "", "f" * 64, False]]
    assert failed_samples(inputs, rerun, {index: data}, None)[0] == 1


def test_missing_output_is_a_failure(qa):
    inputs, _ = qa
    assert failed_samples(inputs, [[0, 1.0, 0, "", None, False]], {}, None)[0] == 1


def test_tracer_counts_and_restores(qa, tmp_path):
    inputs, _ = qa
    originals = (framesel.pool.read_json, framesel.cli.select, framesel.embeddings.l2_normalize_rows)
    tracer = Tracer(alloc=True)
    tracer.request = 0
    tracer.install()
    try:
        assert framesel.pool.read_json is not originals[0]
        with contextlib.redirect_stdout(io.StringIO()):
            assert framesel.cli.main(inputs.requests[0].argv + ["--out", str(tmp_path / "o.json")]) == 0
    finally:
        tracer.uninstall()
    assert (framesel.pool.read_json, framesel.cli.select, framesel.embeddings.l2_normalize_rows) == originals
    layers = layer_metrics(tracer.spans, tracer.spans)
    assert layers["fileio.read_json.calls"] == 4
    assert layers["routing.predict_type.calls"] == 1
    assert layers["embeddings.read_embedding_file.calls"] == 3
    assert layers["selection.select.peak_alloc_mb"] > 0
    assert 0 < layers["cli.main.self_ms"] < layers["cli.main.ms"]
    main = next(s for s in tracer.spans if s.name == "cli.main")
    assert all(s.start >= main.start and s.end <= main.end for s in tracer.spans)


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def test_generator_is_seeded(tmp_path):
    a = gen.generate("greedy-lazy-iid", 3, tmp_path / "a")
    b = gen.generate("greedy-lazy-iid", 3, tmp_path / "b")
    c = gen.generate("greedy-lazy-iid", 4, tmp_path / "c")
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b") != _tree_digest(tmp_path / "c")
    assert [r.query.tobytes() for r in a.requests] == [r.query.tobytes() for r in b.requests]
    assert [r.query.tobytes() for r in a.requests] != [r.query.tobytes() for r in c.requests]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert list(gen.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [w["name"] for w in spec["workloads"]] == ["qa-burst", "greedy-plain-corr"]
    pins = json.loads(run.PINNED.read_text(encoding="utf-8"))
    assert {w: len(d) for w, d in pins["sha256"].items()} == {w: len(s.pool_sizes) * s.questions_per_video for w, s in gen.WORKLOADS.items()}


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "qa-burst", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
