"""Metamorphic relations at full scale: transform an input, predict the output.

Greedy is checked against exact optima only on small instances, and
otherwise against itself.  These tests relate two runs of the pipeline on
scene-walk videos of 300 to 1000 candidates instead (Chen, Cheung and Yiu,
"Metamorphic Testing: A New Approach for Generating Next Test Cases",
1998), at K = 16 under the three presets that read the similarity matrix:

* **scaling**, through the CLI and the library: every row is L2-normalised
  on load, so relevance rows x4, the query x1/4 and semantic rows x8 must
  give the same ``--out`` bytes, scores, similarity matrix and ``select``
  result.  Powers of two scale float32 and float64 values, their squared
  sums and square roots exactly, so the relation holds bit for bit;
* **time reversal**, through the library: reversed rows must select the
  mirrored positions (p -> N + 1 - p), with gains equal within 1e-12
  relative, since the similarity matrix and the coverage sums add the same
  terms in another order;
* **permutation**, through the library: rows in a seeded random order must
  select the same set once positions are mapped back, with gains equal
  within 1e-12 relative for the same reason.
"""

import numpy as np
import pytest

import framesel as fs
from conftest import greedy_records, run_cli, write_fixture_manifest

K = 16
PRESETS = ("relevance_oriented", "coverage_oriented", "coverage_only")
# (seed, N) of each video.
VIDEOS = ((1, 300), (2, 650), (3, 1000))


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


@pytest.mark.parametrize("name", PRESETS)
def test_scaled_rows_give_the_same_bytes(tmp_path, name):
    for seed, n in VIDEOS:
        relevance, semantic, query = scene_video(seed, n)
        outputs = []
        for label, (r, q, s) in (("given", (1, 1, 1)), ("scaled", (4, 0.25, 8))):
            directory = tmp_path / f"{seed}-{label}"
            directory.mkdir()
            manifest = write_fixture_manifest(directory, relevance * r, semantic * s, query * q)
            out = directory / "selection.json"
            code, _, err = run_cli(["select", "--manifest", manifest, "--k", K, "--preset", name, "--out", out])
            assert (code, err) == (0, "")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], (seed, n)


@pytest.mark.parametrize("normalize", (False, True))
@pytest.mark.parametrize("name", PRESETS)
def test_scaled_rows_give_the_same_bits(name, normalize):
    for seed, n in VIDEOS:
        relevance, semantic, query = scene_video(seed, n)
        runs = []
        for r, q, s in ((1, 1, 1), (4, 0.25, 8)):
            es = fs.EmbeddingSet(relevance * r, query * q, semantic * s)
            scores, sim = fs.relevance_scores(es), fs.similarity_matrix(es)
            result = fs.select(scores, sim, K, fs.make_preset(name), normalize_coverage=normalize)
            runs.append((scores.tobytes(), sim.tobytes(), result.positions, result.gains, result.objective))
        assert runs[0] == runs[1], (seed, n)


def decisive(scores, sim, preset):
    """Whether every pick's gain beats every other candidate's bound by 1e-9 relative.

    A bound is at least its candidate's gain, so then no two gains tie
    within rounding at any step.
    """
    for step in greedy_records(scores, sim, K, preset):
        others = np.delete(step.total, step.index)
        if not others.max() < step.gain - 1e-9 * abs(step.gain):
            return False
    return True


def reordered_runs(seed, n, preset, order):
    """(positions, gains) of ``select`` on a video's rows as given, then on its rows in ``order``.

    The second run's positions are mapped back to the given rows: its row i
    is given row ``order[i]``.  Ties at the argmax go to the smallest
    position, which a reordering moves, so a tie could rightly select
    another set; both runs must therefore show every pick decisive.
    """
    relevance, semantic, query = scene_video(seed, n)
    runs = []
    for rows in (np.arange(n), order):
        es = fs.EmbeddingSet(relevance[rows], query, semantic[rows])
        scores, sim = fs.relevance_scores(es), fs.similarity_matrix(es)
        assert decisive(scores, sim, preset), (seed, n)
        result = fs.select(scores, sim, K, preset)
        runs.append((tuple(sorted(int(rows[p - 1]) + 1 for p in result.positions)), result.gains))
    return runs


@pytest.mark.parametrize("name", PRESETS)
def test_reversed_rows_select_the_mirrored_set(name):
    # These seeds are tie-free under reversal.
    preset = fs.make_preset(name)
    for seed, n in VIDEOS:
        (given, gains), (mirrored, reversed_gains) = reordered_runs(seed, n, preset, np.arange(n)[::-1])
        assert mirrored == given, (seed, n)
        np.testing.assert_allclose(reversed_gains, gains, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", PRESETS)
def test_permuted_rows_select_the_same_set(name):
    # These seeds are tie-free under their seeded permutation.  The gains
    # agree within 1e-12 relative, not bit for bit: the similarity matrix's
    # blocked product (SYRK) adds its terms in an order that follows the
    # row order.
    preset = fs.make_preset(name)
    for seed, n in VIDEOS:
        order = np.random.default_rng(seed).permutation(n)
        (given, gains), (mapped, permuted_gains) = reordered_runs(seed, n, preset, order)
        assert mapped == given, (seed, n)
        np.testing.assert_allclose(permuted_gains, gains, rtol=1e-12, atol=0.0)
