"""Objective evaluation, marginal gains, greedy selection, result files."""

import dataclasses
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import framesel as fs
from framesel import selection
from conftest import all_presets, greedy_records, random_problem, scene_video, unit_rows
from reference import ref_greedy, ref_objective

ORTHO2 = np.eye(2)
COVERAGE = fs.make_preset("coverage_only")
RELEVANCE = fs.make_preset("relevance_only")
# Real numbers on both sides of the float range, bools and numpy scalars.
NUMBERS = st.one_of(
    st.floats(), st.integers(min_value=-(2**1100), max_value=2**1100), st.booleans(), st.sampled_from([np.float64(0.5), np.int64(2)])
)


def scene_problem(rng, n, dim=48, scene_rows=(12, 33), asymmetric=False, tie_heavy=False):
    """Video-like rows: each scene walks around its own anchor direction.

    ``asymmetric`` scores rows against perturbed copies, so s[j, e] !=
    s[e, j]; ``tie_heavy`` builds each scene from three exact duplicate
    rows and quantizes relevance, which forces exact gain ties.
    """
    rows = np.empty((n, dim))
    start = 0
    while start < n:
        stop = min(n, start + int(rng.integers(*scene_rows)))
        anchor = unit_rows(rng, 1, dim)[0]
        if tie_heavy:
            distinct = anchor + 0.4 * unit_rows(rng, 3, dim)
            rows[start:stop] = distinct[rng.integers(0, 3, size=stop - start)]
        else:
            walk = rng.normal(size=(stop - start, dim)) * (0.3 / np.sqrt(dim))
            rows[start:stop] = anchor + np.cumsum(walk, axis=0)
        start = stop
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    other = rows
    if asymmetric:
        other = rows + 0.05 * rng.normal(size=rows.shape)
        other /= np.linalg.norm(other, axis=1, keepdims=True)
    scores = rng.integers(0, 3, size=n) / 2.0 if tie_heavy else rng.uniform(0.0, 1.0, size=n)
    return scores, rows @ other.T


def greedy_cases():
    """The case table greedy must solve with full re-scoring's bits.

    A case is (scores, values, k, preset, normalize, engine): 150 small
    random instances, 40 tie-heavy 12-row instances whose duplicated rows
    force exact gain ties at many steps, and 12 scene instances of 300-600
    rows, every third asymmetric and every third tie-heavy.  Presets,
    normalization and engine names take turns, so each family meets each
    engine name and the small and scene families meet every preset with
    and without normalization.
    """
    rng = np.random.default_rng(20260814)
    presets, engines = all_presets(0.35), selection.ENGINES
    cases = []
    for trial in range(150):
        scores, values = random_problem(rng, max_n=40, dim=5)
        k = int(rng.integers(1, min(len(scores), 12) + 1))
        cases.append((scores, values, k, presets[trial % 4], bool(trial // 4 % 2), engines[trial // 8 % len(engines)]))
    for trial in range(40):
        rows = np.eye(4)[rng.integers(0, 4, size=12)]
        scores = rng.integers(0, 3, size=12) / 2.0
        preset = fs.make_preset("coverage_oriented", 0.5)
        cases.append((scores, rows @ rows.T, 6, preset, False, engines[trial % len(engines)]))
    for trial in range(12):
        n = int(rng.integers(300, 601))
        scores, values = scene_problem(rng, n, asymmetric=trial % 3 == 1, tie_heavy=trial % 3 == 2)
        k = int(rng.integers(16, 65))
        cases.append((scores, values, k, presets[trial % 4], bool(trial // 4 % 2), engines[trial // 6 % len(engines)]))
    return cases


def full_rescore_greedy(scores, values, k, preset, normalize):
    """Greedy that re-sums every candidate's gain at every step.

    The same per-row arithmetic as the engine without its stale bounds, so
    its positions and gains must match the engine's bit for bit.
    """
    n = len(scores)
    values = np.ascontiguousarray(values)
    c = np.full(n, -1.0)
    buf = np.empty((n, n))
    chosen = np.zeros(n, dtype=bool)
    order, gains = [], []
    for _ in range(min(k, n)):
        if preset.beta == 0.0:
            total = preset.alpha * scores
        else:
            np.subtract(values, c, out=buf)
            cov = np.maximum(buf, 0.0, out=buf).sum(axis=1)
            if normalize:
                cov /= n
            total = preset.alpha * scores + preset.beta * cov
        total[chosen] = -np.inf
        e = int(np.argmax(total))
        order.append(e + 1)
        gains.append(float(total[e]))
        chosen[e] = True
        np.maximum(c, values[e], out=c)
    return tuple(sorted(order)), tuple(gains)


def float_bits(values) -> bytes:
    """Bytes of float64 values: unlike ==, tells -0.0 from +0.0."""
    return np.asarray(values, dtype=np.float64).tobytes()


def full_rescoring_bits(scores, values, k, preset, normalize):
    """(positions, gains, objective) of full re-scoring, floats as bytes.

    The objective is ``objective_value`` of the positions, the same
    expression over the same coverage vector that ``select`` evaluates.
    """
    positions, gains = full_rescore_greedy(scores, values, k, preset, normalize)
    return positions, float_bits(gains), float_bits(fs.objective_value(positions, scores, values, preset, normalize))


def selected_bits(result):
    """(positions, gains, objective) of a select result, floats as bytes."""
    return result.positions, float_bits(result.gains), float_bits(result.objective)


def matches_reference_greedy(scores, values, k, preset, normalize):
    """Check ``select`` against the pure-Python greedy where no step is a
    near tie; return 1 if compared, 0 if skipped."""
    s_list, v_list = scores.tolist(), values.tolist()
    positions, gains, gap = ref_greedy(s_list, v_list, k, preset.alpha, preset.beta, normalize)
    if gap < 1e-9:
        return 0
    result = fs.select(scores, values, k, preset, normalize_coverage=normalize)
    assert result.positions == positions
    np.testing.assert_allclose(result.gains, gains, atol=1e-9)
    want = ref_objective(positions, s_list, v_list, preset.alpha, preset.beta, normalize)
    assert result.objective == pytest.approx(want, abs=1e-9)
    return 1


def entry_point_calls(scores, sim, preset):
    """One call of each entry point that checks an instance, by name.

    ``select`` and ``brute_force_optimum`` run at budget N, the evaluators
    on the full set and on the gain of position 2 over {1}.  ``sim=None``
    reaches ``select`` as is and the others as the identity: they refuse
    None, and for beta == 0 the matrix does not change F.
    """
    n = len(scores)
    matrix = np.eye(n) if sim is None else sim
    full = list(range(1, n + 1))
    return {
        "select": lambda: fs.select(scores, sim, max(n, 1), preset),
        "objective_terms": lambda: fs.objective_terms(full, scores, matrix, preset),
        "objective_value": lambda: fs.objective_value(full, scores, matrix, preset),
        "marginal_gain": lambda: fs.marginal_gain(2, [1], scores, matrix, preset),
        "brute_force_optimum": lambda: fs.brute_force_optimum(scores, matrix, max(n, 1), preset),
    }


def assert_refused_everywhere(scores, sim, preset, match):
    """Every entry point raises ParameterError matching ``match``, and no warning escapes."""
    for call in entry_point_calls(scores, sim, preset).values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fs.ParameterError, match=match):
                call()


def duplicate_cluster_problem():
    """Rows 1 and 2 identical, row 3 orthogonal; relevance all zero."""
    sem = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return np.zeros(3), sem @ sem.T


class TestPresets:
    def test_preset_table(self):
        assert (RELEVANCE.alpha, RELEVANCE.beta) == (1.0, 0.0)
        assert (COVERAGE.alpha, COVERAGE.beta) == (0.0, 1.0)
        rel_or = fs.make_preset("relevance_oriented", 0.25)
        assert (rel_or.alpha, rel_or.beta) == (1.0, 0.25)
        cov_or = fs.make_preset("coverage_oriented", 0.5)
        assert (cov_or.alpha, cov_or.beta) == (0.5, 1.0)

    def test_lambda_must_be_inside_open_interval(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(fs.ParameterError):
                fs.make_preset("relevance_oriented", bad)
        # pure presets ignore any finite lambda
        assert fs.make_preset("relevance_only", 1.5).beta == 0.0

    def test_non_finite_lambda_rejected_for_every_preset(self):
        # 10**400 and "0.5" raised a raw TypeError, and the pure presets took True as 1.0.
        for name in fs.PRESET_NAMES:
            for bad in (float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), True, "0.5", None):
                with pytest.raises(fs.ParameterError, match="^lambda must be finite, got "):
                    fs.make_preset(name, bad)

    def test_unknown_name(self):
        with pytest.raises(fs.ParameterError):
            fs.make_preset("balanced")

    def test_preset_orders_are_derived_from_the_one_table(self):
        # The table's order is the routing tie order; the CLI lists the
        # pure presets first.
        assert fs.PRESET_ORDER == ("relevance_only", "relevance_oriented", "coverage_oriented", "coverage_only")
        assert fs.PRESET_NAMES == ("relevance_only", "coverage_only", "relevance_oriented", "coverage_oriented")
        assert fs.PRESET_ORDER == tuple(selection.PRESET_WEIGHTS)


class TestObjectiveValue:
    def test_empty_set_is_exactly_zero(self, rng):
        scores, values = random_problem(rng, n=9)
        for preset in all_presets():
            assert fs.objective_value((), scores, values, preset) == 0.0
            for normalize in (False, True):
                assert fs.objective_terms((), scores, values, preset, normalize) == (0.0, 0.0, 0.0)

    def test_orthogonal_pair_coverage(self):
        r = np.zeros(2)
        assert fs.objective_value([1], r, ORTHO2, COVERAGE) == 3.0
        assert fs.objective_value([1, 2], r, ORTHO2, COVERAGE) == 4.0

    def test_out_of_range_position(self):
        with pytest.raises(IndexError):
            fs.objective_value([0], np.zeros(2), ORTHO2, COVERAGE)
        with pytest.raises(IndexError):
            fs.objective_value([3], np.zeros(2), ORTHO2, COVERAGE)
        # An int of any size is a position, so 10**400 is out of range, not a non-integer.
        with pytest.raises(IndexError, match="^positions must lie in 1..2"):
            fs.objective_value([1, 10**400], np.zeros(2), ORTHO2, COVERAGE)

    def test_non_integer_positions_rejected(self):
        r = np.array([0.1, 0.2, 0.3])
        for bad in ([2.7], [1.9], [True], [np.True_], [1, float("nan")]):
            with pytest.raises(fs.ParameterError, match="integer"):
                fs.objective_value(bad, r, np.eye(3), RELEVANCE)
            for preset in (RELEVANCE, COVERAGE):
                with pytest.raises(fs.ParameterError, match="integer"):
                    fs.objective_terms(bad, r, np.eye(3), preset)
        want = fs.objective_terms([2, 3], r, np.eye(3), COVERAGE)
        assert fs.objective_terms([np.int64(2), 3.0], r, np.eye(3), COVERAGE) == want

    @pytest.mark.parametrize("bad", ["x", "2", None, 1j, [1]])
    def test_non_number_positions_are_parameter_errors(self, bad):
        # a string once reached the float comparison and raised a raw TypeError
        with pytest.raises(fs.ParameterError, match="integer"):
            fs.objective_value([bad], np.array([0.1, 0.2, 0.3]), np.eye(3), RELEVANCE)

    def test_misaligned_inputs(self):
        for evaluate in (fs.objective_terms, fs.objective_value):
            with pytest.raises(fs.AlignmentError, match="3 relevance scores but 5x5 similarity matrix"):
                evaluate([1, 2], np.zeros(3), np.eye(5), COVERAGE)
            # An empty candidate set once fell through to a ZeroDivisionError.
            for normalize in (False, True):
                with pytest.raises(fs.ParameterError, match="non-empty"):
                    evaluate([], np.zeros(0), np.zeros((0, 0)), COVERAGE, normalize)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_entry_is_refused(self, bad):
        # The matrix's values are not checked, but a NaN or inf entry that
        # reaches F or a gain is refused; both were returned as NaN or inf.
        r, sim = np.array([0.5, 0.2]), np.array([[bad, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for preset in (RELEVANCE, COVERAGE):
                with pytest.raises(fs.ParameterError):
                    fs.objective_terms([1], r, sim, preset)
            with pytest.raises(fs.ParameterError):
                fs.marginal_gain(1, [], r, sim, COVERAGE)

    def test_overflow_message_names_the_matrix(self):
        # A NaN entry used to be blamed on the weights alone.
        r, sim = np.array([0.5, 0.2]), np.array([[np.nan, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: fs.select(r, sim, 1, COVERAGE),
                lambda: fs.objective_terms([1], r, sim, RELEVANCE),
                lambda: fs.objective_terms([1], r, sim, COVERAGE),
            ):
                with pytest.raises(fs.ParameterError, match="overflow") as caught:
                    call()
                assert "similarity entry" in str(caught.value)

    def test_generator_positions_are_read_once(self, rng):
        assert fs.objective_terms(iter([1, 2]), np.zeros(2), ORTHO2, COVERAGE) == (0.0, 4.0, 4.0)
        assert fs.objective_value(iter([1, 2]), np.zeros(2), ORTHO2, COVERAGE) == 4.0
        scores, values = random_problem(rng, n=9)
        subset = [2, 5, 7]
        for preset in all_presets(0.3):
            for normalize in (False, True):
                want = fs.objective_terms(subset, scores, values, preset, normalize)
                assert fs.objective_terms((p for p in subset), scores, values, preset, normalize) == want
                assert fs.objective_value((p for p in subset), scores, values, preset, normalize) == want[2]

    def test_terms_match_reference_and_greedy_bits(self, rng):
        # R and C against the pure-Python definitions; F with the bits of
        # objective_value and, on the greedy set, of select's objective.
        for _ in range(60):
            scores, values = random_problem(rng)
            n = len(scores)
            k = int(rng.integers(1, n + 1))
            subset = sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
            s_list, v_list = scores.tolist(), values.tolist()
            for preset in all_presets(0.3):
                for normalize in (False, True):
                    greedy = fs.select(scores, values, k, preset, normalize_coverage=normalize)
                    for positions in (subset, greedy.positions):
                        rel, cov, obj = fs.objective_terms(positions, scores, values, preset, normalize)
                        assert rel == pytest.approx(ref_objective(positions, s_list, v_list, 1.0, 0.0), abs=1e-12)
                        want_cov = ref_objective(positions, s_list, v_list, 0.0, 1.0, normalize)
                        assert cov == pytest.approx(want_cov, abs=1e-12)
                        assert obj.hex() == fs.objective_value(positions, scores, values, preset, normalize).hex()
                    assert greedy.objective.hex() == obj.hex()

    def test_matches_reference_evaluation(self, rng):
        # F = alpha*R + beta*C against the pure-Python definition, on the
        # empty set and on random subsets of every size.
        for _ in range(80):
            scores, values = random_problem(rng)
            n = len(scores)
            size = int(rng.integers(0, n + 1))
            subset = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
            s_list, v_list = scores.tolist(), values.tolist()
            for preset in all_presets(0.3):
                for normalize in (False, True):
                    for positions in ((), subset):
                        got = fs.objective_value(positions, scores, values, preset, normalize)
                        want = ref_objective(positions, s_list, v_list, preset.alpha, preset.beta, normalize)
                        assert got == pytest.approx(want, abs=1e-9)


class TestMarginalGain:
    def test_duplicate_semantic_row_gains_nothing(self):
        scores, values = duplicate_cluster_problem()
        assert abs(fs.marginal_gain(2, [1], scores, values, COVERAGE)) <= 1e-6

    def test_orthogonal_gain_from_empty_state(self):
        assert fs.marginal_gain(1, [], np.zeros(2), ORTHO2, COVERAGE) == 3.0

    def test_alpha_only_gain_is_the_relevance_score(self, rng):
        scores, values = random_problem(rng, n=6)
        for e in (1, 3, 6):
            assert fs.marginal_gain(e, [2], scores, values, RELEVANCE) == scores[e - 1]

    def test_already_selected_is_a_duplicate_error(self):
        scores, values = duplicate_cluster_problem()
        for selected in ([1], [2, 1], (3, 1, 1)):
            with pytest.raises(fs.ParameterError, match="^position 1 already selected$"):
                fs.marginal_gain(1, selected, scores, values, COVERAGE)

    def test_out_of_range_positions_are_index_errors(self):
        scores, values = duplicate_cluster_problem()
        for position, selected in ((0, []), (4, []), (1, [4]), (1, [0, 2])):
            with pytest.raises(IndexError):
                fs.marginal_gain(position, selected, scores, values, COVERAGE)

    def test_non_integer_positions_rejected(self):
        scores, values = duplicate_cluster_problem()
        for position, selected in ((1.5, []), (True, []), (np.True_, []), (float("nan"), []), (1, [2.5]), (1, [False])):
            with pytest.raises(fs.ParameterError, match="integer"):
                fs.marginal_gain(position, selected, scores, values, COVERAGE)
        want = fs.marginal_gain(3, [1], scores, values, COVERAGE)
        for position, selected in ((np.int64(3), [1]), (3.0, [1.0]), (3, np.array([1]))):
            assert fs.marginal_gain(position, selected, scores, values, COVERAGE) == want

    @pytest.mark.parametrize("bad", ["x", None, 1j])
    def test_non_number_positions_are_parameter_errors(self, bad):
        scores, values = duplicate_cluster_problem()
        for position, selected in ((bad, []), (1, [bad])):
            with pytest.raises(fs.ParameterError, match="integer"):
                fs.marginal_gain(position, selected, scores, values, COVERAGE)

    def test_misaligned_inputs(self):
        with pytest.raises(fs.AlignmentError, match="3 relevance scores but 5x5 similarity matrix"):
            fs.marginal_gain(1, [], np.zeros(3), np.eye(5), COVERAGE)
        with pytest.raises(fs.ParameterError, match="non-empty"):
            fs.marginal_gain(1, [], np.zeros(0), np.zeros((0, 0)), COVERAGE)

    def test_generator_selected_is_read_once(self, rng):
        scores, values = random_problem(rng, n=9)
        for preset in all_presets(0.3):
            want = fs.marginal_gain(4, [2, 7], scores, values, preset)
            assert fs.marginal_gain(4, (p for p in [2, 7]), scores, values, preset) == want
        with pytest.raises(fs.ParameterError, match="^position 2 already selected$"):
            fs.marginal_gain(2, iter([7, 2]), scores, values, COVERAGE)

    @pytest.mark.parametrize("kind", ["random", "scene", "asymmetric", "tie_heavy"])
    def test_replaying_greedy_gives_select_bits(self, rng, kind):
        # Each step takes the argmax of marginal_gain over the unpicked
        # positions, ties to the smallest; picks and gains must be select's.
        for trial in range(15):
            if kind == "random":
                scores, values = random_problem(rng, max_n=40, dim=5)
            else:
                scores, values = scene_problem(
                    rng, int(rng.integers(20, 61)), asymmetric=kind == "asymmetric", tie_heavy=kind == "tie_heavy"
                )
            n = len(scores)
            k = int(rng.integers(1, min(n, 10) + 1))
            preset = all_presets(0.4)[trial % 4]
            picked, gains = [], []
            for _ in range(k):
                best, best_gain = None, -np.inf
                for e in range(1, n + 1):
                    if e not in picked:
                        gain = fs.marginal_gain(e, picked, scores, values, preset)
                        if gain > best_gain:
                            best, best_gain = e, gain
                picked.append(best)
                gains.append(best_gain)
            result = fs.select(scores, values, k, preset)
            assert tuple(sorted(picked)) == result.positions
            assert tuple(gains) == result.gains


class TestSelect:
    def test_relevance_only_is_top_k(self):
        result = fs.select(np.array([0.2, 0.9, 0.5]), np.eye(3), 2, RELEVANCE)
        assert result.positions == (2, 3)
        assert result.gains == (0.9, 0.5)

    def test_duplicate_tie_broken_to_smallest_position(self):
        scores, values = duplicate_cluster_problem()
        result = fs.select(scores, values, 2, COVERAGE)
        assert result.positions == (1, 3)

    def test_budget_at_least_ground_set_selects_everything(self, rng):
        scores, values = random_problem(rng, n=7)
        for preset in all_presets():
            result = fs.select(scores, values, 12, preset)
            assert result.positions == tuple(range(1, 8))
            full = fs.objective_value(result.positions, scores, values, preset)
            assert result.objective == pytest.approx(full, abs=1e-9)

    def test_budget_errors(self, rng):
        scores, values = random_problem(rng, n=4)
        for bad in (0, -3, float("nan"), float("inf")):
            with pytest.raises(fs.ParameterError, match=f"^budget must be an integer >= 1, got {bad!r}$"):
                fs.select(scores, values, bad, COVERAGE)

    def test_misaligned_inputs(self, rng):
        with pytest.raises(fs.AlignmentError):
            fs.select(np.ones(3), np.eye(4), 2, COVERAGE)
        with pytest.raises(fs.ParameterError, match="non-empty"):
            fs.select(np.zeros(0), np.zeros((0, 0)), 1, COVERAGE)

    def test_negative_scores_rejected(self):
        with pytest.raises(fs.ParameterError):
            fs.select(np.array([0.5, -0.1]), ORTHO2, 1, RELEVANCE)
        # The evaluators once returned F for such scores.
        for preset in (RELEVANCE, COVERAGE):
            assert_refused_everywhere(np.array([0.5, -0.1]), ORTHO2, preset, "relevance scores must be non-negative")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(fs.ParameterError, match="finite"):
            fs.select(np.array([0.5, bad]), ORTHO2, 1, RELEVANCE)
        for preset in (RELEVANCE, COVERAGE):
            assert_refused_everywhere(np.array([0.5, bad]), ORTHO2, preset, "relevance scores must be finite")

    @pytest.mark.parametrize(
        ("scores", "sim", "match"),
        [
            ([10**400, 0.2], ORTHO2, "^relevance scores must be finite numbers$"),
            (["a", 0.2], ORTHO2, "^relevance scores must be an array of numbers$"),
            ([[0.5], [0.2, 0.1]], ORTHO2, "^relevance scores must be an array of numbers$"),
            ([0.5, 0.2], [[10**400, 0.0], [0.0, 1.0]], "^similarity matrix must be an array of numbers$"),
            ([0.5, 0.2], [[1.0, 0.0], [0.0]], "^similarity matrix must be an array of numbers$"),
            ([[0.5, 0.2], [0.1, 0.3]], ORTHO2, r"^relevance scores must be a vector, got shape \(2, 2\)$"),
        ],
        ids=["int400-score", "string-score", "ragged-scores", "int400-entry", "ragged-matrix", "matrix-scores"],
    )
    def test_arrays_numpy_cannot_convert_rejected(self, scores, sim, match):
        # numpy's raw OverflowError or ValueError escaped from every entry
        # point; an array it converts must still have the rank of the rule.
        assert_refused_everywhere(scores, sim, COVERAGE, match)

    def test_empty_scores_rejected(self):
        # select without a matrix once ended in numpy's ValueError, and the
        # exact search returned (0.0, ()).
        assert_refused_everywhere(np.array([]), None, RELEVANCE, "non-empty")
        with pytest.raises(fs.ParameterError, match="relevance scores must be non-empty"):
            fs.select(np.array([]), None, 1, RELEVANCE)

    @pytest.mark.parametrize("bad", ["x", "2", None, 2j])
    def test_non_number_budget_is_a_budget_error(self, bad):
        with pytest.raises(fs.ParameterError, match=f"^budget must be an integer >= 1, got {re.escape(repr(bad))}$"):
            fs.select(np.array([0.5, 0.2]), ORTHO2, bad, RELEVANCE)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_budget_rejected(self, flag):
        with pytest.raises(fs.ParameterError, match=f"^budget must be an integer >= 1, got {re.escape(repr(flag))}$"):
            fs.select(np.array([0.5, 0.2]), ORTHO2, flag, RELEVANCE)

    @pytest.mark.parametrize(
        ("alpha", "beta"),
        [
            (1.0, -0.5), (float("nan"), 1.0), (1.0, float("inf")), (1.0, -1.0), (1.0, float("nan")),
            (10**400, 1.0), (1.0, 10**400), (True, 1.0), (1.0, True), ("1", 0.0),
        ],
        ids=lambda v: "10**400" if v == 10**400 else None,
    )
    def test_weights_that_break_the_bounds_rejected(self, rng, alpha, beta):
        # A negative coverage weight would turn stale gains into lower
        # bounds and let the engine accept a wrong argmax; a non-finite
        # weight makes the gains inf or NaN, which no argmax can order.
        # The evaluators and the exact search once returned an F for them.
        # A 10**400 weight raised a raw OverflowError, and True was taken as 1.
        scores, values = random_problem(rng, n=6)
        preset = fs.Preset(name="custom", alpha=alpha, beta=beta)
        with pytest.raises(fs.ParameterError):
            fs.select(scores, values, 2, preset)
        assert_refused_everywhere(scores, values, preset, "preset weights must be finite with beta >= 0")

    @pytest.mark.parametrize(
        ("scores", "sim", "preset", "gain_overflows"),
        [
            ([2.0, 3.0, 4.0], None, fs.Preset(name="x", alpha=-1e308, beta=0.0), True),
            ([2.0, 3.0, 4.0], np.eye(3), fs.Preset(name="x", alpha=-1e308, beta=0.5), True),
            ([0.9, 0.8, 0.7], np.eye(3), fs.Preset(name="big", alpha=1e308, beta=0.5), False),
            ([1e308, 1e308], None, RELEVANCE, False),
        ],
        ids=["gains-beta-zero", "gains-beta-positive", "objective-big-weight", "objective-big-scores"],
    )
    def test_overflow_rejected(self, scores, sim, preset, gain_overflows):
        # Gains of -inf let argmax take a chosen candidate again, so select
        # returned positions (1, 1, 1); an objective of inf cannot be written.
        # marginal_gain once returned -inf with a RuntimeWarning, and
        # objective_terms F = inf; the gain of 2 over {1} overflows only in
        # the gains rows.
        calls = entry_point_calls(np.array(scores), sim, preset)
        gain = calls.pop("marginal_gain")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls.values():
                with pytest.raises(fs.ParameterError, match="overflow"):
                    call()
            if gain_overflows:
                with pytest.raises(fs.ParameterError, match="overflow"):
                    gain()
            else:
                assert np.isfinite(gain())

    @pytest.mark.parametrize("value", [10**400, float("nan"), float("inf"), True], ids=["10**400", "nan", "inf", "True"])
    def test_a_value_off_the_number_rule_is_an_overflow(self, value):
        with pytest.raises(fs.ParameterError, match="overflow a gain or F$"):
            selection._refuse_overflow(RELEVANCE, 0.5, value)

    def test_a_huge_budget_selects_every_candidate(self):
        result = fs.select(np.array([0.5, 0.2]), ORTHO2, 10**400, COVERAGE)
        assert (result.positions, result.budget) == ((1, 2), 10**400)
        # On scene-walk pools, a budget of N or more selects positions 1..N
        # with N gains that never rise, and F of the whole pool's bits.
        for n in (9, 300):
            relevance, semantic, query = scene_video(1, n)
            es = fs.EmbeddingSet(relevance, query, semantic)
            scores, sim = fs.relevance_scores(es), fs.similarity_matrix(es)
            for preset in all_presets():
                for normalize in (False, True):
                    whole = fs.objective_terms(range(1, n + 1), scores, sim, preset, normalize)[2]
                    for k in (n, n + 5):
                        result = fs.select(scores, sim, k, preset, normalize_coverage=normalize)
                        case = (n, preset.name, normalize, k)
                        assert result.positions == tuple(range(1, n + 1)), case
                        assert len(result.gains) == n, case
                        assert all(later <= earlier for earlier, later in zip(result.gains, result.gains[1:])), case
                        assert result.objective == whole, case

    def test_result_invariants(self, rng):
        for _ in range(30):
            scores, values = random_problem(rng, max_n=25)
            n = len(scores)
            k = int(rng.integers(1, n + 3))
            preset = all_presets(0.4)[int(rng.integers(0, 4))]
            result = fs.select(scores, values, k, preset)
            assert len(result.positions) == min(k, n)
            assert all(b > a for a, b in zip(result.positions, result.positions[1:]))
            gains = result.gains
            assert all(later <= earlier + 1e-6 for earlier, later in zip(gains, gains[1:]))
            assert result.objective == pytest.approx(sum(gains), abs=1e-5)
            direct = fs.objective_value(result.positions, scores, values, preset)
            assert result.objective == pytest.approx(direct, abs=1e-9)

    def test_matches_reference_greedy_on_decisive_instances(self, rng):
        compared = 0
        for _ in range(60):
            scores, values = random_problem(rng, max_n=10)
            k = int(rng.integers(1, 5))
            for preset in all_presets(0.6):
                for normalize in (False, True):
                    compared += matches_reference_greedy(scores, values, k, preset, normalize)
        assert compared > 400

    def test_normalized_coverage_is_recorded_and_scaled(self, rng):
        scores, values = random_problem(rng, n=8)
        plain = fs.select(scores, values, 3, COVERAGE)
        scaled = fs.select(scores, values, 3, COVERAGE, normalize_coverage=True)
        assert scaled.coverage_normalized and not plain.coverage_normalized
        want = ref_objective(scaled.positions, scores.tolist(), values.tolist(), 0.0, 1.0, True)
        assert scaled.objective == pytest.approx(want, abs=1e-9)

    def test_pool_mapping_in_result(self, rng):
        meta = fs.VideoMeta("clip", 2.0, 10)
        pool = fs.build_pool(meta)
        scores, values = random_problem(rng, n=5)
        result = fs.select(scores, values, 3, COVERAGE, pool)
        assert result.video_id == "clip"
        assert result.seconds == tuple(pool.seconds[p - 1] for p in result.positions)
        assert result.frame_indices == tuple(
            fs.frame_index_of_second(meta, s) for s in result.seconds
        )

    def test_pool_size_mismatch(self, rng):
        pool = fs.build_pool(fs.VideoMeta("clip", 2.0, 10))
        scores, values = random_problem(rng, n=4)
        with pytest.raises(fs.AlignmentError):
            fs.select(scores, values, 2, COVERAGE, pool)


class TestLazyEngine:
    def test_unknown_engine(self, rng):
        scores, values = random_problem(rng, n=4)
        with pytest.raises(fs.ParameterError):
            fs.select(scores, values, 2, COVERAGE, engine="batched")


class TestStaleBoundGreedy:
    """Greedy's one contract: ``select`` returns the positions, gains and
    objective of re-scoring every candidate at every step, bit for bit,
    whatever the engine name and the tuning constants.

    ``test_bits_are_full_rescoring`` pins it, over one case table under
    every tuning setting; ``test_matches_reference_greedy`` compares
    ``select`` with the pure-Python reference on asymmetric scenes;
    ``test_records_are_the_result`` reads ``select``'s picks and gains off
    greedy's step records; the other tests count re-sums from the records
    or pin one tie.
    """

    # Each tuning constant alone.  A gain block holds max(1, min(N,
    # _BLOCK_VALUES // N)) rows, so over the table's N these give blocks of
    # one row, of a few rows with a ragged last block (64 on the small and
    # tie-heavy cases, 5000 and the defaults on the scene cases), and of
    # every row (the defaults up to N = 256, 2**20 above).  A block setting
    # runs only the cases whose blocks no earlier setting gives.  A first
    # batch re-sums one stale row, the default 16, or every stale row at
    # once (1 << 20 is above every case's N).
    TUNINGS = {
        "defaults": {},
        "block_values=1": {"_BLOCK_VALUES": 1},
        "block_values=64": {"_BLOCK_VALUES": 64},
        "block_values=5000": {"_BLOCK_VALUES": 5000},
        "block_values=2**20": {"_BLOCK_VALUES": 1 << 20},
        "first_batch=1": {"_FIRST_BATCH": 1},
        "first_batch=N": {"_FIRST_BATCH": 1 << 20},
    }

    @pytest.fixture(scope="class")
    def table(self):
        """Each case with its full re-scoring bits, computed once."""
        return [(case, full_rescoring_bits(*case[:5])) for case in greedy_cases()]

    @pytest.mark.parametrize("setting", list(TUNINGS))
    def test_bits_are_full_rescoring(self, table, setting, monkeypatch):
        tuning = self.TUNINGS[setting]
        earlier = list(self.TUNINGS.values())[: list(self.TUNINGS).index(setting)]
        blocks = {t.get("_BLOCK_VALUES", selection._BLOCK_VALUES) for t in earlier} if "_BLOCK_VALUES" in tuning else set()

        def block_rows(n, block_values):
            return max(1, min(n, block_values // n))

        cases = [(case, want) for case, want in table if all(
            block_rows(len(case[0]), v) != block_rows(len(case[0]), tuning["_BLOCK_VALUES"]) for v in blocks)]
        assert cases
        for name, value in tuning.items():
            monkeypatch.setattr(selection, name, value)
        for (scores, values, k, preset, normalize, engine), want in cases:
            got = fs.select(scores, values, k, preset, normalize_coverage=normalize, engine=engine)
            assert selected_bits(got) == want

    def test_matches_reference_greedy(self, rng):
        # The reference reads row e as candidate e's similarities, so an
        # asymmetric matrix shows a greedy that reads it by columns.
        compared = 0
        for trial in range(12):
            scores, values = scene_problem(rng, int(rng.integers(20, 41)), scene_rows=(4, 9), asymmetric=True)
            k = int(rng.integers(4, 9))
            for normalize in (False, True):
                compared += matches_reference_greedy(scores, values, k, all_presets(0.6)[trial % 4], normalize)
        assert compared >= 20

    def test_records_are_the_result(self, table):
        # The picks and gains ``select`` returns are its step records'.
        for (scores, values, k, preset, normalize, engine), _ in table:
            records = greedy_records(scores, values, k, preset, normalize)
            result = fs.select(scores, values, k, preset, normalize_coverage=normalize, engine=engine)
            assert tuple(sorted(r.index + 1 for r in records)) == result.positions
            assert float_bits([r.gain for r in records]) == float_bits(result.gains)

    @staticmethod
    def _count_row_sums(monkeypatch):
        summed = []
        row_sums = selection._coverage_sums

        def counting(values, c, buf, rows):
            summed.append(rows.shape[0])
            return row_sums(values, c, buf, rows)

        monkeypatch.setattr(selection, "_coverage_sums", counting)
        return summed

    def test_skip_engages_on_scene_structured_rows(self, rng, monkeypatch):
        # Re-scoring every row at every step is correct but slow, so count
        # the rows the engine actually re-sums.  The records' counts are
        # checked once here, step by step, against an outside count.
        n, k = 600, 64
        scores, values = scene_problem(rng, n)
        preset = fs.make_preset("coverage_oriented")
        summed = self._count_row_sums(monkeypatch)
        picks, rows, views = [], [], []
        for step in selection._greedy_steps(scores, values, k, preset, False, np.full(n, selection.COVERAGE_BASELINE)):
            assert (step.rows, step.calls) == (sum(summed), len(summed))
            summed.clear()
            # The bounds before the pick: the winner's gain, -inf for earlier picks.
            assert step.total[step.index] == step.gain and np.isneginf(step.total[picks]).all()
            picks.append(step.index)
            rows.append(step.rows)
            views.append(step.total)
        assert not views[0].flags.writeable and all(view is views[0] for view in views)
        assert tuple(sorted(e + 1 for e in picks)) == full_rescore_greedy(scores, values, k, preset, False)[0]
        assert rows[0] == n  # the first step scores every candidate
        assert sum(rows) < n * k // 4  # full re-scoring sums n * k rows

    def test_skip_engages_on_iid_rows(self, rng):
        # Without scene structure every pick lowers most gains a little;
        # the bounds still spare most re-sums.
        n, k = 600, 64
        rows = unit_rows(rng, n, 64)
        scores, values = rng.uniform(0.0, 1.0, size=n), rows @ rows.T
        preset = fs.make_preset("coverage_oriented")
        records = greedy_records(scores, values, k, preset)
        assert (tuple(sorted(r.index + 1 for r in records)), tuple(r.gain for r in records)) == full_rescore_greedy(
            scores, values, k, preset, False
        )
        assert sum(r.rows for r in records) < n * k // 4

    def test_stale_tie_at_smaller_position_wins(self, monkeypatch):
        # Rows are the candidates s[e, .].  Picking 1 drops 3's gain from
        # 6 to exactly 2, the gain 2 keeps untouched: with one-row batches 3
        # is re-summed first and ties fresh with the stale bound of 2.  Full
        # re-scoring takes the smaller position, 2, and so must the engine.
        rows = [
            [1, 1, -1, 1, -1],
            [-1, -1, 1, -1, -1],
            [1, 1, -1, -1, 1],
            [-1, -1, -1, -1, -1],
            [-1, -1, -1, -1, -1],
        ]
        values = np.array(rows, dtype=np.float64)
        scores = np.zeros(5)
        want = full_rescore_greedy(scores, values, 2, COVERAGE, False)
        assert want == ((1, 2), (6.0, 2.0))
        for first_batch in (1, 16):
            monkeypatch.setattr(selection, "_FIRST_BATCH", first_batch)
            got = fs.select(scores, values, 2, COVERAGE)
            assert (got.positions, got.gains) == want
            monkeypatch.undo()


class TestInPlaceRead:
    """Greedy reads a C-contiguous float64 matrix in place, symmetric or not."""

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_c_contiguous_matrix_is_read_in_place(self, rng, kind):
        n, k = 1000, 32
        if kind == "symmetric":
            rows = unit_rows(rng, n, 64)
            scores, values = rng.uniform(0.0, 1.0, size=n), rows @ rows.T
        else:
            scores, values = scene_problem(rng, n, asymmetric=True)
        assert values.flags.c_contiguous
        preset = fs.make_preset("coverage_oriented")
        tracemalloc.start()
        try:
            result = fs.select(scores, values, k, preset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4  # a copy alone is n * n * 8 bytes
        assert (result.positions, result.gains) == full_rescore_greedy(scores, values, k, preset, False)

    @pytest.mark.parametrize("layout", ["f_order", "strided"])
    def test_other_layouts_give_their_c_order_copy_bits(self, rng, layout):
        # Asymmetric, so reading columns instead of rows would show.
        n, k = 600, 24
        scores, values = scene_problem(rng, n, asymmetric=True)
        if layout == "f_order":
            other = np.asfortranarray(values)
        else:
            wide = np.zeros((n, 2 * n))
            wide[:, ::2] = values
            other = wide[:, ::2]
        for preset in all_presets(0.35)[1:]:
            want = fs.select(scores, values, k, preset)
            got = fs.select(scores, other, k, preset)
            assert (got.positions, got.gains) == (want.positions, want.gains)


class TestWithoutSimilarity:
    """A beta == 0 preset never reads the similarity matrix, so it may be None."""

    # alpha < 0 makes alpha * R a -0.0 when the picks score 0; adding
    # beta * C (beta = +0.0, C >= 0) turns it into +0.0, and the None path
    # must do the same.  beta = -0.0 keeps the -0.0.
    PRESETS = (
        RELEVANCE,
        fs.Preset(name="negative", alpha=-0.75, beta=0.0),
        fs.Preset(name="negative_zero", alpha=-0.75, beta=-0.0),
        fs.Preset(name="zero", alpha=0.0, beta=0.0),
    )

    def test_none_gives_the_bits_of_the_matrix(self, rng):
        zero_objectives = set()
        for trial in range(60):
            scores, values = random_problem(rng, max_n=20, quantized_scores=trial % 2 == 0)
            k = int(rng.integers(1, len(scores) + 2))
            normalize = bool(trial % 3 == 0)
            for preset in self.PRESETS:
                got = fs.select(scores, None, k, preset, normalize_coverage=normalize)
                want = fs.select(scores, values, k, preset, normalize_coverage=normalize)
                assert got.positions == want.positions
                assert float_bits(got.gains) == float_bits(want.gains)
                assert float_bits(got.objective) == float_bits(want.objective)
                # The objective also keeps the bits of F with the true C,
                # and greedy those of re-scoring every candidate.
                direct = fs.objective_value(got.positions, scores, values, preset, normalize)
                assert float_bits(got.objective) == float_bits(direct)
                positions, gains = full_rescore_greedy(scores, values, k, preset, normalize)
                assert (got.positions, float_bits(got.gains)) == (positions, float_bits(gains))
                if got.objective == 0.0:
                    zero_objectives.add(float_bits(got.objective))
        # Both signed zeros occurred, so the sign argument was exercised.
        assert zero_objectives == {float_bits(0.0), float_bits(-0.0)}

    @pytest.mark.parametrize("name", ["coverage_only", "relevance_oriented", "coverage_oriented"])
    def test_presets_that_read_coverage_need_the_matrix(self, name):
        with pytest.raises(fs.ParameterError, match="beta"):
            fs.select(np.array([0.5, 0.2]), None, 1, fs.make_preset(name))

    def test_evaluators_need_the_matrix(self):
        # C reads the matrix, so only select takes None, even for beta == 0.
        r = np.array([0.5, 0.2])
        for call in (
            lambda: fs.objective_terms([1], r, None, RELEVANCE),
            lambda: fs.objective_value([1], r, None, RELEVANCE),
            lambda: fs.marginal_gain(2, [1], r, None, RELEVANCE),
            lambda: fs.brute_force_optimum(r, None, 1, RELEVANCE),
        ):
            with pytest.raises(fs.ParameterError, match="similarity matrix must be square"):
                call()

    def test_pool_and_budget_checks_still_apply(self):
        pool = fs.build_pool(fs.VideoMeta(video_id="v", fps=1.0, total_frames=3))
        with pytest.raises(fs.AlignmentError):
            fs.select(np.array([0.5, 0.2]), None, 1, RELEVANCE, pool)
        with pytest.raises(fs.ParameterError, match="^budget must be an integer >= 1, got 0$"):
            fs.select(np.array([0.5, 0.2]), None, 0, RELEVANCE)


class TestResultFile:
    def _result(self, rng):
        pool = fs.build_pool(fs.VideoMeta("clip", 2.0, 16))
        scores, values = random_problem(rng, n=8)
        return fs.select(scores, values, 4, fs.make_preset("relevance_oriented", 0.5), pool)

    def test_file_shape(self, tmp_path, rng):
        result = self._result(rng)
        path = tmp_path / "sel.json"
        fs.write_selection_result(result, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert list(doc) == [
            "video_id",
            "preset",
            "budget",
            "positions",
            "seconds",
            "frame_indices",
            "gains",
            "objective",
            "coverage_normalized",
        ]
        assert list(doc["preset"]) == ["name", "alpha", "beta", "lambda"]
        assert doc["positions"] == list(result.positions)

    def test_poolless_result_cannot_be_serialized(self, rng):
        scores, values = random_problem(rng, n=5)
        result = fs.select(scores, values, 2, COVERAGE)
        with pytest.raises(fs.ParameterError):
            fs.write_selection_result(result, "unused.json")

    def test_reader_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "sel.json"
        path.write_text('{"video_id":"v"}', encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_selection_result(path)

    @pytest.mark.parametrize(
        "lists",
        [
            # once loaded, and then a raw ValueError in write_selection_result
            {"positions": ["x", None], "seconds": [1.5], "gains": ["g"]},
            {"positions": [3, 2, 5, 7]},
            {"positions": [0, 2, 5, 7]},
            {"positions": [True, 2, 5, 7]},
            {"positions": [1, 2, 5, 5]},
            {"seconds": [0, 2, 8]},
            {"frame_indices": [0, 2, 8, 12.5]},
            {"gains": [1.0, 0.5, 0.25]},
            {"gains": [1.0, 0.5, 0.25, None]},
            # an integer is an integer literal: 1.0 and 2.0 are not
            {"positions": [1.0, 2, 5, 7]},
            {"seconds": [0, 2.0, 8, 12]},
            {"budget": 0},
            {"budget": 3},
        ],
        ids=[
            "wrong-kinds", "descending", "zero", "bool", "repeated", "short-seconds", "fractional-frame",
            "short-gains", "null-gain", "float-position", "float-second", "zero-budget", "over-budget",
        ],
    )
    def test_reader_rejects_malformed_lists(self, lists, tmp_path, rng):
        path = tmp_path / "sel.json"
        fs.write_selection_result(self._result(rng), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**doc, **lists}), encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_selection_result(path)

    @pytest.mark.parametrize(
        ("changes", "match"),
        [
            # (3, 1) wrote a file that the reader refused.
            ({"positions": (3, 1, 5, 7)}, "^positions must be strictly ascending integers >= 1$"),
            ({"positions": (0, 1, 5, 7)}, "^positions must be strictly"),
            ({"positions": (True, 2, 5, 7)}, "^positions must be strictly"),
            ({"positions": (1.5, 2, 5, 7)}, "^positions must be strictly"),
            ({"seconds": None}, "^seconds, frame_indices and video_id must all be None or hold one entry per position$"),
            ({"video_id": None}, "^seconds, frame_indices and video_id"),
            ({"frame_indices": (0, 1, 2)}, "^seconds, frame_indices and video_id"),
            # A NaN gain or preset weight ended in a raw ValueError from the writer.
            ({"gains": (1.0, float("nan"), 0.5, 0.25)}, "^a result needs one finite gain per position"),
            ({"gains": (1.0, 0.5, 0.25)}, "^a result needs one finite gain per position"),
            ({"objective": float("inf")}, "^a result needs one finite gain per position"),
            ({"preset": fs.Preset("x", float("nan"), 0.5)}, "^a result needs one finite gain per position"),
            # A 10**400 gain was built, and write_selection_result then raised a raw OverflowError.
            ({"gains": (10**400, 0.5, 0.25, 0.125)}, "^a result needs one finite gain per position"),
            ({"objective": True}, "^a result needs one finite gain per position"),
            ({"preset": fs.Preset("x", 1.0, 0.5, -(10**400))}, "^a result needs one finite gain per position"),
            ({"budget": 0}, "^budget must be an integer >= 1, got 0$"),
            ({"budget": 4.5}, "^budget must be an integer >= 1, got 4.5$"),
            ({"budget": 3}, "^4 positions exceed the budget 3$"),
        ],
        ids=[
            "descending", "zero", "bool", "fractional", "no-seconds", "no-video-id", "short-frames", "nan-gain", "short-gains",
            "inf-objective", "nan-weight", "huge-gain", "bool-objective", "huge-lambda", "zero-budget", "fractional-budget", "over-budget",
        ],
    )
    def test_bad_fields_refused_when_built(self, changes, match, rng):
        result = self._result(rng)
        assert len(result.positions) == 4
        with pytest.raises(fs.ParameterError, match=match):
            dataclasses.replace(result, **changes)

    def test_numpy_numbers_still_build(self, rng):
        scores, values = random_problem(rng, n=5)
        result = fs.select(scores, values, 2, fs.Preset("numpy", np.float64(0.5), np.float64(0.5)))
        assert dataclasses.replace(result, positions=tuple(map(np.int64, result.positions))).positions == result.positions

    def test_huge_positions_and_budget_round_trip(self, tmp_path, rng):
        result = dataclasses.replace(self._result(rng), positions=(1, 2, 5, 10**400), budget=10**400)
        fs.write_selection_result(result, tmp_path / "a.json")
        assert fs.read_selection_result(tmp_path / "a.json") == result

    @settings(max_examples=200, deadline=None)
    @given(gain=NUMBERS, objective=NUMBERS)
    @example(gain=10**400, objective=0.5)
    @example(gain=0.5, objective=2**1024 - 2**970)
    @example(gain=2**1024 - 2**971, objective=0.5)
    def test_writing_a_result_never_overflows(self, gain, objective, tmp_path_factory):
        # Whatever number a result is built with, it writes and reads back;
        # 2**1024 - 2**970 rounds past the float range, 2**1024 - 2**971 is its largest float.
        try:
            result = dataclasses.replace(self._result(np.random.default_rng(0)), gains=(gain, 0.5, 0.25, 0.125), objective=objective)
        except fs.ParameterError:
            return
        path = tmp_path_factory.mktemp("result") / "a.json"
        fs.write_selection_result(result, path)
        back = fs.read_selection_result(path)
        assert (back.gains[0], back.objective) == (float(gain), float(objective))

    def test_custom_preset_round_trips(self, tmp_path, rng):
        pool = fs.build_pool(fs.VideoMeta("clip", 2.0, 16))
        scores, values = random_problem(rng, n=8)
        result = fs.select(scores, values, 3, fs.Preset("custom", 0.3, 0.7, 0.25), pool)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        fs.write_selection_result(result, first)
        fs.write_selection_result(fs.read_selection_result(first), second)
        assert first.read_bytes() == second.read_bytes()

