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
  within 1e-12 relative for the same reason;
* **a duplicate**, through the library, at N = 300 and 1000: appending a
  copy of a frame that ``coverage_only`` chose leaves C and F of the chosen
  set bit-identical once the copy joins it.

Which source mutants each relation kills, each run on a scratch copy of
the tree (the golden corpus, ``test_golden.py``, kills all nine):

* scaling through the CLI: skipping the query's normalisation
  (``relevance_oriented`` and ``coverage_oriented`` only);
* scaling through the library: skipping the query's normalisation (all six
  ids);
* time reversal: a relevance weight rising with position
  (``relevance_oriented`` and ``coverage_oriented``);
* permutation: a relevance weight rising with position, and one symmetric
  about the middle (``relevance_oriented`` and ``coverage_oriented``);
* a duplicate: a coverage vector that sums the chosen rows instead of
  taking their maximum (both ids);
* none: argmax ties to the larger position, a stale argmax taken after one
  re-sum batch, ``selection_result_doc`` with two keys swapped,
  ``--normalize-coverage`` without its division, and ``even_spacing``
  rounding up.
"""

import numpy as np
import pytest

import framesel as fs
from conftest import greedy_records, run_cli, scene_video, write_fixture_manifest

K = 16
PRESETS = ("relevance_oriented", "coverage_oriented", "coverage_only")
# (seed, N) of each video.
VIDEOS = ((1, 300), (2, 650), (3, 1000))


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


@pytest.mark.parametrize(("seed", "n"), (VIDEOS[0], VIDEOS[2]))
def test_a_duplicate_of_a_chosen_frame_adds_no_coverage(seed, n):
    # F = C under coverage_only, and a copy of a chosen frame covers no
    # column better than the frame does.  The copy's similarity row is its
    # own SYRK output, apart from the frame's row by rounding in most
    # entries, so this also pins that those sub-ulp moves of the coverage
    # vector leave C's bits alone on these seeds.  R gains the copy's score.
    preset = fs.make_preset("coverage_only")
    relevance, semantic, query = scene_video(seed, n)
    es = fs.EmbeddingSet(relevance, query, semantic)
    chosen = list(fs.select(fs.relevance_scores(es), fs.similarity_matrix(es), K, preset).positions)
    for position in chosen:
        rows = np.r_[np.arange(n), position - 1]
        es = fs.EmbeddingSet(relevance[rows], query, semantic[rows])
        scores, sim = fs.relevance_scores(es), fs.similarity_matrix(es)
        _, *terms = fs.objective_terms(chosen, scores, sim, preset)
        _, *with_copy = fs.objective_terms([*chosen, n + 1], scores, sim, preset)
        assert with_copy == terms, (seed, n, position)
