"""Objective evaluation, marginal gains, greedy selection, result files."""

import json
import tracemalloc

import numpy as np
import pytest

import framesel as fs
from framesel import selection
from conftest import all_presets, random_problem, unit_rows
from reference import ref_greedy, ref_objective, ref_topk

ORTHO2 = np.eye(2)
COVERAGE = fs.make_preset("coverage_only")
RELEVANCE = fs.make_preset("relevance_only")


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


def full_rescore_greedy(scores, values, k, preset, normalize):
    """Greedy that re-sums every candidate's gain at every step.

    The same per-row arithmetic as the engine without its stale bounds, so
    its positions and gains must match the engine's bit for bit.
    """
    n = len(scores)
    values = np.ascontiguousarray(values)
    c = np.full(n, -1.0)
    chosen = np.zeros(n, dtype=bool)
    order, gains = [], []
    for _ in range(min(k, n)):
        if preset.beta == 0.0:
            total = preset.alpha * scores
        else:
            cov = np.maximum(values - c, 0.0).sum(axis=1)
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


def full_rescoring_bits(cases):
    """(positions, gains, objective) of full re-scoring on each case.

    A case is (scores, values, k, preset, normalize).  The objective is
    ``objective_value`` of the positions, the same expression over the
    same coverage vector that ``select`` evaluates.
    """
    bits = []
    for s, v, k, p, nc in cases:
        positions, gains = full_rescore_greedy(s, v, k, p, nc)
        bits.append((positions, gains, fs.objective_value(positions, s, v, p, nc)))
    return bits


def selected_bits(cases, engine):
    results = [fs.select(s, v, k, p, normalize_coverage=nc, engine=engine) for s, v, k, p, nc in cases]
    return [(r.positions, r.gains, r.objective) for r in results]


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
        for name in fs.PRESET_NAMES:
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(fs.ParameterError):
                    fs.make_preset(name, bad)

    def test_unknown_name(self):
        with pytest.raises(fs.ParameterError):
            fs.make_preset("balanced")


class TestObjectiveValue:
    def test_empty_set_is_exactly_zero(self, rng):
        scores, values = random_problem(rng, n=9)
        for preset in all_presets():
            assert fs.objective_value((), scores, values, preset) == 0.0
        assert fs.coverage_value((), values) == 0.0
        assert fs.relevance_sum((), scores) == 0.0

    def test_orthogonal_pair_coverage(self):
        r = np.zeros(2)
        assert fs.objective_value([1], r, ORTHO2, COVERAGE) == 3.0
        assert fs.objective_value([1, 2], r, ORTHO2, COVERAGE) == 4.0

    def test_out_of_range_position(self):
        with pytest.raises(IndexError):
            fs.objective_value([0], np.zeros(2), ORTHO2, COVERAGE)
        with pytest.raises(IndexError):
            fs.objective_value([3], np.zeros(2), ORTHO2, COVERAGE)

    def test_non_integer_positions_rejected(self):
        r = np.array([0.1, 0.2, 0.3])
        with pytest.raises(fs.ParameterError, match="integer"):
            fs.relevance_sum([2.7], r)
        for bad in ([1.9], [True], [np.True_], [1, float("nan")]):
            with pytest.raises(fs.ParameterError, match="integer"):
                fs.objective_value(bad, r, np.eye(3), RELEVANCE)
            with pytest.raises(fs.ParameterError, match="integer"):
                fs.coverage_value(bad, np.eye(3))
        assert fs.relevance_sum([np.int64(2), 3.0], r) == fs.relevance_sum([2, 3], r)

    @pytest.mark.parametrize("bad", ["x", "2", None, 1j, [1]])
    def test_non_number_positions_are_parameter_errors(self, bad):
        # a string once reached the float comparison and raised a raw TypeError
        with pytest.raises(fs.ParameterError, match="integer"):
            fs.objective_value([bad], np.array([0.1, 0.2, 0.3]), np.eye(3), RELEVANCE)

    def test_misaligned_inputs(self):
        with pytest.raises(fs.AlignmentError, match="3 relevance scores but 5x5 similarity matrix"):
            fs.objective_value([1, 2], np.zeros(3), np.eye(5), COVERAGE)
        # An empty candidate set once fell through to a ZeroDivisionError.
        for normalize in (False, True):
            with pytest.raises(fs.ParameterError, match="non-empty"):
                fs.coverage_value([], np.zeros((0, 0)), normalize)
            with pytest.raises(fs.ParameterError, match="non-empty"):
                fs.objective_value([], np.zeros(0), np.zeros((0, 0)), COVERAGE, normalize)

    def test_generator_positions_are_read_once(self, rng):
        assert fs.objective_value(iter([1, 2]), np.zeros(2), ORTHO2, COVERAGE) == 4.0
        scores, values = random_problem(rng, n=9)
        subset = [2, 5, 7]
        assert fs.relevance_sum((p for p in subset), scores) == fs.relevance_sum(subset, scores)
        for normalize in (False, True):
            want = fs.coverage_value(subset, values, normalize)
            assert fs.coverage_value((p for p in subset), values, normalize) == want
        for preset in all_presets(0.3):
            want = fs.objective_value(subset, scores, values, preset)
            assert fs.objective_value((p for p in subset), scores, values, preset) == want

    def test_matches_reference_evaluation(self, rng):
        for _ in range(80):
            scores, values = random_problem(rng)
            n = len(scores)
            size = int(rng.integers(0, n + 1))
            subset = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
            for preset in all_presets(0.3):
                for normalize in (False, True):
                    got = fs.objective_value(subset, scores, values, preset, normalize)
                    want = ref_objective(
                        subset, scores.tolist(), values.tolist(), preset.alpha, preset.beta, normalize
                    )
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
            with pytest.raises(fs.DuplicateSelectionError):
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
        with pytest.raises(fs.DuplicateSelectionError):
            fs.marginal_gain(2, iter([7, 2]), scores, values, COVERAGE)

    def test_matches_objective_difference(self, rng):
        for _ in range(40):
            scores, values = random_problem(rng, max_n=20)
            n = len(scores)
            preset = all_presets(0.7)[int(rng.integers(0, 4))]
            size = int(rng.integers(0, n))
            base = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
            f_base = fs.objective_value(base, scores, values, preset)
            for e in range(1, n + 1):
                if e in base:
                    continue
                inc = fs.marginal_gain(e, base, scores, values, preset)
                direct = fs.objective_value(base + [e], scores, values, preset) - f_base
                assert inc == pytest.approx(direct, abs=1e-5)

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
            with pytest.raises(fs.BudgetError):
                fs.select(scores, values, bad, COVERAGE)

    def test_misaligned_inputs(self, rng):
        with pytest.raises(fs.AlignmentError):
            fs.select(np.ones(3), np.eye(4), 2, COVERAGE)
        with pytest.raises(fs.ParameterError, match="non-empty"):
            fs.select(np.zeros(0), np.zeros((0, 0)), 1, COVERAGE)

    def test_negative_scores_rejected(self):
        with pytest.raises(fs.ParameterError):
            fs.select(np.array([0.5, -0.1]), ORTHO2, 1, RELEVANCE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(fs.ParameterError, match="finite"):
            fs.select(np.array([0.5, bad]), ORTHO2, 1, RELEVANCE)

    @pytest.mark.parametrize("bad", ["x", "2", None, 2j])
    def test_non_number_budget_is_a_budget_error(self, bad):
        with pytest.raises(fs.BudgetError):
            fs.select(np.array([0.5, 0.2]), ORTHO2, bad, RELEVANCE)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_budget_rejected(self, flag):
        with pytest.raises(fs.BudgetError):
            fs.select(np.array([0.5, 0.2]), ORTHO2, flag, RELEVANCE)

    @pytest.mark.parametrize(("alpha", "beta"), [(1.0, -0.5), (float("nan"), 1.0), (1.0, float("inf"))])
    def test_weights_that_break_the_bounds_rejected(self, rng, alpha, beta):
        # A negative coverage weight would turn stale gains into lower
        # bounds and let the engine accept a wrong argmax; a non-finite
        # weight makes the gains inf or NaN, which no argmax can order.
        scores, values = random_problem(rng, n=6)
        preset = fs.Preset(name="custom", alpha=alpha, beta=beta)
        for engine in fs.ENGINES:
            with pytest.raises(fs.ParameterError):
                fs.select(scores, values, 2, preset, engine=engine)

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

    def test_determinism_bit_for_bit(self, rng):
        scores, values = random_problem(rng, n=18)
        a = fs.select(scores, values, 6, fs.make_preset("coverage_oriented", 0.5))
        b = fs.select(scores, values, 6, fs.make_preset("coverage_oriented", 0.5))
        assert a.positions == b.positions and a.gains == b.gains and a.objective == b.objective

    def test_relevance_only_matches_reference_topk_with_ties(self, rng):
        for _ in range(60):
            scores, values = random_problem(rng, max_n=15, quantized_scores=True)
            k = int(rng.integers(1, len(scores) + 1))
            result = fs.select(scores, values, k, RELEVANCE)
            assert result.positions == ref_topk(scores.tolist(), k)

    def test_matches_reference_greedy_on_decisive_instances(self, rng):
        compared = 0
        for _ in range(60):
            scores, values = random_problem(rng, max_n=10)
            k = int(rng.integers(1, 5))
            for preset in all_presets(0.6):
                positions, gains, gap = ref_greedy(
                    scores.tolist(), values.tolist(), k, preset.alpha, preset.beta
                )
                if gap < 1e-9:
                    continue
                result = fs.select(scores, values, k, preset)
                assert result.positions == positions
                np.testing.assert_allclose(result.gains, gains, atol=1e-9)
                compared += 1
        assert compared > 100

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
    def test_bit_identical_to_full_rescoring_across_random_instances(self, rng):
        cases = []
        for trial in range(150):
            scores, values = random_problem(rng, max_n=40, dim=5)
            k = int(rng.integers(1, min(len(scores), 12) + 1))
            cases.append((scores, values, k, all_presets(0.35)[trial % 4], bool(trial % 2)))
        expected = full_rescoring_bits(cases)
        for engine in fs.ENGINES:
            assert selected_bits(cases, engine) == expected

    def test_bit_identical_on_tie_heavy_instances(self, rng):
        cases = []
        for _ in range(40):
            # duplicated rows force exact gain ties at many steps
            base = np.eye(4)[rng.integers(0, 4, size=12)]
            scores = rng.integers(0, 3, size=12) / 2.0
            cases.append((scores, base @ base.T, 6, fs.make_preset("coverage_oriented", 0.5), False))
        expected = full_rescoring_bits(cases)
        for engine in fs.ENGINES:
            assert selected_bits(cases, engine) == expected

    def test_gain_blocks_do_not_change_bits(self, rng, monkeypatch):
        # Block sizes that leave a ragged last block must not change a bit
        # of either engine's output.
        cases = []
        for trial in range(20):
            scores, values = random_problem(rng, max_n=40, dim=5)
            k = int(rng.integers(1, min(len(scores), 12) + 1))
            cases.append((scores, values, k, all_presets(0.35)[trial % 4], bool(trial % 2)))
        expected = full_rescoring_bits(cases)
        for block_values in (None, 1, 7, 40):
            if block_values is not None:
                monkeypatch.setattr(selection, "_BLOCK_VALUES", block_values)
            for engine in fs.ENGINES:
                assert selected_bits(cases, engine) == expected
            monkeypatch.undo()

    def test_unknown_engine(self, rng):
        scores, values = random_problem(rng, n=4)
        with pytest.raises(fs.ParameterError):
            fs.select(scores, values, 2, COVERAGE, engine="batched")


class TestStaleBoundGreedy:
    """Both engine names keep stale gains as bounds and re-sum few rows."""

    @staticmethod
    def _cases(rng):
        cases = []
        for trial in range(12):
            n = int(rng.integers(300, 601))
            scores, values = scene_problem(
                rng, n, asymmetric=trial % 3 == 1, tie_heavy=trial % 3 == 2
            )
            k = int(rng.integers(16, 65))
            cases.append((scores, values, k, all_presets(0.35)[trial % 4], bool(trial // 4 % 2)))
        return cases

    def test_bit_identical_to_full_rescoring_and_lazy(self, rng, monkeypatch):
        cases = self._cases(rng)
        expected = full_rescoring_bits(cases)
        assert selected_bits(cases, "lazy") == expected
        # Ragged blocks change which rows are summed together, never a bit.
        for block_values in (None, 1, 5000, 1 << 20):
            if block_values is not None:
                monkeypatch.setattr(selection, "_BLOCK_VALUES", block_values)
            assert selected_bits(cases, "plain") == expected
            monkeypatch.undo()

    def test_matches_reference_greedy(self, rng):
        compared = 0
        for trial in range(4):
            scores, values = scene_problem(rng, 200, scene_rows=(8, 17), asymmetric=bool(trial % 2))
            preset = all_presets(0.6)[trial]
            normalize = trial >= 2
            positions, gains, gap = ref_greedy(
                scores.tolist(), values.tolist(), 16, preset.alpha, preset.beta, normalize
            )
            if gap < 1e-9:
                continue
            result = fs.select(scores, values, 16, preset, normalize_coverage=normalize)
            assert result.positions == positions
            np.testing.assert_allclose(result.gains, gains, atol=1e-9)
            want = ref_objective(
                positions, scores.tolist(), values.tolist(), preset.alpha, preset.beta, normalize
            )
            assert result.objective == pytest.approx(want, abs=1e-9)
            compared += 1
        assert compared >= 3

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
        # the rows the engine actually re-sums.
        n, k = 600, 64
        scores, values = scene_problem(rng, n)
        summed = self._count_row_sums(monkeypatch)
        result = fs.select(scores, values, k, fs.make_preset("coverage_oriented"))
        assert result.positions == full_rescore_greedy(scores, values, k, result.preset, False)[0]
        assert summed[0] == n  # the first step scores every candidate
        assert sum(summed) < n * k // 4  # full re-scoring sums n * k rows

    def test_skip_engages_on_iid_rows(self, rng, monkeypatch):
        # Without scene structure every pick lowers most gains a little;
        # the bounds still spare most re-sums.
        n, k = 600, 64
        rows = unit_rows(rng, n, 64)
        scores, values = rng.uniform(0.0, 1.0, size=n), rows @ rows.T
        summed = self._count_row_sums(monkeypatch)
        result = fs.select(scores, values, k, fs.make_preset("coverage_oriented"))
        assert (result.positions, result.gains) == full_rescore_greedy(scores, values, k, result.preset, False)
        assert sum(summed) < n * k // 4

    def test_first_batch_does_not_change_bits(self, rng, monkeypatch):
        # One stale row at a time, the default batch, or every stale row at
        # once: only the number of re-sums may change, never a bit.
        for s, v, k, p, nc in self._cases(rng)[:6]:
            want = full_rescore_greedy(s, v, k, p, nc)
            for first_batch in (1, 16, len(s)):
                monkeypatch.setattr(selection, "_FIRST_BATCH", first_batch)
                got = fs.select(s, v, k, p, normalize_coverage=nc)
                assert (got.positions, got.gains) == want
                monkeypatch.undo()

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


def float_bits(values) -> bytes:
    """Bytes of float64 values: unlike ==, tells -0.0 from +0.0."""
    return np.asarray(values, dtype=np.float64).tobytes()


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

    def test_pool_and_budget_checks_still_apply(self):
        pool = fs.build_pool(fs.VideoMeta(video_id="v", fps=1.0, total_frames=3))
        with pytest.raises(fs.AlignmentError):
            fs.select(np.array([0.5, 0.2]), None, 1, RELEVANCE, pool)
        with pytest.raises(fs.BudgetError):
            fs.select(np.array([0.5, 0.2]), None, 0, RELEVANCE)


class TestResultFile:
    def _result(self, rng):
        pool = fs.build_pool(fs.VideoMeta("clip", 2.0, 16))
        scores, values = random_problem(rng, n=8)
        return fs.select(scores, values, 4, fs.make_preset("relevance_oriented", 0.5), pool)

    def test_round_trip_is_byte_identical(self, tmp_path, rng):
        result = self._result(rng)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        fs.write_selection_result(result, first)
        fs.write_selection_result(fs.read_selection_result(first), second)
        assert first.read_bytes() == second.read_bytes()

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
        ],
        ids=[
            "wrong-kinds", "descending", "zero", "bool", "repeated", "short-seconds", "fractional-frame",
            "short-gains", "null-gain", "float-position", "float-second",
        ],
    )
    def test_reader_rejects_malformed_lists(self, lists, tmp_path, rng):
        path = tmp_path / "sel.json"
        fs.write_selection_result(self._result(rng), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**doc, **lists}), encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_selection_result(path)

    def test_custom_preset_round_trips(self, tmp_path, rng):
        pool = fs.build_pool(fs.VideoMeta("clip", 2.0, 16))
        scores, values = random_problem(rng, n=8)
        result = fs.select(scores, values, 3, fs.Preset("custom", 0.3, 0.7, 0.25), pool)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        fs.write_selection_result(result, first)
        fs.write_selection_result(fs.read_selection_result(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestStructuralProperties:
    def test_monotone_and_submodular(self, rng):
        for _ in range(120):
            scores, values = random_problem(rng, max_n=10)
            n = len(scores)
            preset = all_presets(0.5)[int(rng.integers(0, 4))]
            everyone = np.arange(1, n + 1)
            big = sorted(
                rng.choice(everyone, size=int(rng.integers(0, n)), replace=False).tolist()
            )
            small = [p for p in big if rng.random() < 0.5]
            f_small = fs.objective_value(small, scores, values, preset)
            f_big = fs.objective_value(big, scores, values, preset)
            assert f_big >= f_small - 1e-6
            outside = [p for p in everyone if p not in big]
            e = int(outside[int(rng.integers(0, len(outside)))])
            gain_small = fs.marginal_gain(e, small, scores, values, preset)
            gain_big = fs.marginal_gain(e, big, scores, values, preset)
            assert gain_small >= gain_big - 1e-6
