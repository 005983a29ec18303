"""Shared fixtures: random instances, on-disk embedding and routing inputs, CLI runners."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import signal
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import framesel as fs
from framesel import cli, selection

# Property tests draw the same inputs on every run; each test's own
# @settings keeps its max_examples and deadline on top of this profile.
settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


def unit_rows(rng, n, dim):
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_problem(rng, n=None, max_n=12, dim=6, quantized_scores=False):
    """A (scores, sim values) pair in the pipeline's regime."""
    if n is None:
        n = int(rng.integers(1, max_n + 1))
    rows = unit_rows(rng, n, dim)
    if quantized_scores:
        scores = rng.integers(0, 4, size=n) / 4.0
    else:
        scores = rng.uniform(0.0, 1.0, size=n)
    return scores, rows @ rows.T


def greedy_records(scores, values, k, preset, normalize=False):
    """Greedy's step records as ``select`` runs the loop, each ``total`` view copied before the loop resumes."""
    values = np.ascontiguousarray(values) if preset.beta != 0.0 else None
    c = np.full(len(scores), selection.COVERAGE_BASELINE)
    steps = selection._greedy_steps(scores, values, min(k, len(scores)), preset, normalize, c)
    with np.errstate(over="ignore", invalid="ignore"):
        return [dataclasses.replace(step, total=step.total.copy()) for step in steps]


def all_presets(lam=0.5):
    return [fs.make_preset(name, lam) for name in fs.PRESET_NAMES]


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def write_fixture_manifest(
    directory: Path,
    relevance,
    semantic,
    query,
    fps=1.0,
    video_id="fixture",
    cap=fs.DEFAULT_CAP,
):
    """Write pool manifest + three embedding files; returns the manifest path."""
    relevance = np.asarray(relevance, dtype=np.float64)
    n = relevance.shape[0]
    meta = fs.VideoMeta(video_id=video_id, fps=fps, total_frames=int(np.ceil(n * fps)))
    pool = fs.build_pool(meta, cap=cap)
    assert pool.n == n, "fixture fps/frames must produce one candidate per row"
    fs.write_embedding_file(directory / "relevance.fsel", relevance)
    fs.write_embedding_file(directory / "semantic.fsel", np.asarray(semantic, dtype=np.float64))
    fs.write_embedding_file(directory / "query.fsel", np.asarray(query, dtype=np.float64))
    manifest = directory / "manifest.json"
    fs.write_embedding_manifest(pool, "relevance.fsel", "semantic.fsel", "query.fsel", manifest)
    return manifest


def scene_video(seed, n, d_s=32, d_d=48):
    """Float32 relevance rows, semantic rows and a one-row query of a scene-walk video.

    Scenes of 12 to 60 frames each walk around their own anchor direction
    in both spaces; the query sits near one frame's relevance row.
    """
    rng = np.random.default_rng(seed)
    bounds = np.cumsum(rng.integers(12, 61, size=n))
    starts = [0, *bounds[bounds < n]]

    def walk(dim):
        rows = np.empty((n, dim))
        for start, stop in zip(starts, [*starts[1:], n]):
            anchor = rng.normal(size=dim)
            steps = rng.normal(size=(stop - start, dim)) * (0.3 / np.sqrt(dim))
            rows[start:stop] = anchor / np.linalg.norm(anchor) + np.cumsum(steps, axis=0)
        return rows

    relevance, semantic = walk(d_s), walk(d_d)
    query = relevance[rng.integers(n)] + rng.normal(size=d_s) / np.sqrt(d_s)
    return relevance.astype(np.float32), semantic.astype(np.float32), query[None, :].astype(np.float32)


def rows_with_cosines(cosines):
    """Unit rows whose raw_relu scores against query [1, 0, ...] equal the cosines."""
    cosines = np.asarray(cosines, dtype=np.float64)
    rows = np.zeros((cosines.shape[0], 2))
    rows[:, 0] = cosines
    rows[:, 1] = np.sqrt(1.0 - cosines**2)
    return rows


# The accuracy CSV's header, written out rather than built from PRESET_ORDER,
# so that a change to either shows as a failing test.
HEADER = "type,relevance_only,relevance_oriented,coverage_oriented,coverage_only\n"
ACCURACY = HEADER + "count,0.5,0.9,0.2,0.1\nneedle,0.9,0.5,0.2,0.1\n"
TRAINING = "".join(f"count\thow many items appear {i}\nneedle\tfind the exact moment {i}\n" for i in range(3))


def write_routing_inputs(directory: Path):
    """Write valid ``train.tsv`` and ``acc.csv`` to ``directory``, and through the library what they give.

    That is ``model.json``, the model trained on the TSV, and
    ``routing.json``, the table fitted from the CSV, which routes count to
    relevance_oriented and needle to relevance_only.
    """
    (directory / "train.tsv").write_text(TRAINING, encoding="utf-8")
    (directory / "acc.csv").write_text(ACCURACY, encoding="utf-8")
    fs.write_model(fs.train_classifier(fs.read_training_examples(directory / "train.tsv")), directory / "model.json")
    fs.write_routing_table(fs.fit_routing(fs.read_accuracy_table(directory / "acc.csv")), directory / "routing.json")


@pytest.fixture
def cli_inputs(tmp_path):
    """Valid inputs of every command in ``tmp_path``: three candidates scoring [0.2, 0.9, 0.5], the routing inputs."""
    rng = np.random.default_rng(0)
    write_fixture_manifest(tmp_path, rows_with_cosines([0.2, 0.9, 0.5]), unit_rows(rng, 3, 4), np.array([[1.0, 0.0]]))
    write_routing_inputs(tmp_path)
    return tmp_path


def run_cli(args):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr) of the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


ERROR_LINE = re.compile(r"error:([1-4]):[^\n]*\n")
ALARM_SECONDS = 10


def _hang(signum, frame):
    pytest.fail(f"no exit within {ALARM_SECONDS} s")


def run_checked(argv):
    """``run_cli`` under a hang alarm, warnings raised as errors; asserts exit 0 and an empty stderr, or one error line."""
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(ALARM_SECONDS)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run_cli(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    line = ERROR_LINE.fullmatch(stderr)
    if code == 0:
        assert stderr == ""
    else:
        assert line is not None and int(line.group(1)) == code, stderr
    return code, stdout, stderr


def read_json_file(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
