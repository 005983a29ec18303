"""Objective evaluation, marginal gains, greedy selection, result files."""

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
    simt = np.ascontiguousarray(values.T)
    c = np.full(n, -1.0)
    chosen = np.zeros(n, dtype=bool)
    order, gains = [], []
    for _ in range(min(k, n)):
        if preset.beta == 0.0:
            total = preset.alpha * scores
        else:
            cov = np.maximum(simt - c, 0.0).sum(axis=1)
            if normalize:
                cov /= n
            total = preset.alpha * scores + preset.beta * cov
        total[chosen] = -np.inf
        e = int(np.argmax(total))
        order.append(e + 1)
        gains.append(float(total[e]))
        chosen[e] = True
        np.maximum(c, simt[e], out=c)
    return tuple(sorted(order)), tuple(gains)


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
        state = fs.CoverageState(3)
        state.update(1, values)
        assert abs(fs.marginal_gain(2, state, scores, values, COVERAGE)) <= 1e-6

    def test_orthogonal_gain_from_empty_state(self):
        state = fs.CoverageState(2)
        assert fs.marginal_gain(1, state, np.zeros(2), ORTHO2, COVERAGE) == 3.0

    def test_alpha_only_gain_is_the_relevance_score(self, rng):
        scores, values = random_problem(rng, n=6)
        state = fs.CoverageState(6)
        state.update(2, values)
        for e in (1, 3, 6):
            assert fs.marginal_gain(e, state, scores, values, RELEVANCE) == scores[e - 1]

    def test_already_selected_is_a_duplicate_error(self):
        scores, values = duplicate_cluster_problem()
        state = fs.CoverageState(3)
        state.update(1, values)
        with pytest.raises(fs.DuplicateSelectionError):
            fs.marginal_gain(1, state, scores, values, COVERAGE)

    def test_matches_objective_difference(self, rng):
        for _ in range(40):
            scores, values = random_problem(rng, max_n=20)
            n = len(scores)
            preset = all_presets(0.7)[int(rng.integers(0, 4))]
            size = int(rng.integers(0, n))
            base = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
            state = fs.CoverageState(n)
            for p in base:
                state.update(p, values)
            f_base = fs.objective_value(base, scores, values, preset)
            for e in range(1, n + 1):
                if e in base:
                    continue
                inc = fs.marginal_gain(e, state, scores, values, preset)
                direct = fs.objective_value(base + [e], scores, values, preset) - f_base
                assert inc == pytest.approx(direct, abs=1e-5)


class TestCoverageState:
    def test_starts_at_baseline_and_never_decreases(self, rng):
        scores, values = random_problem(rng, n=10)
        state = fs.CoverageState(10)
        assert (state.c == -1.0).all()
        previous = state.c.copy()
        for p in rng.permutation(np.arange(1, 11))[:6]:
            state.update(int(p), values)
            assert (state.c >= previous).all()
            assert state.c.max() <= 1 + 1e-6
            previous = state.c.copy()
        assert len(state.selected) == 6

    def test_rejects_duplicates_and_bad_positions(self):
        _, values = duplicate_cluster_problem()
        state = fs.CoverageState(3)
        state.update(2, values)
        with pytest.raises(fs.DuplicateSelectionError):
            state.update(2, values)
        with pytest.raises(IndexError):
            state.update(4, values)


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
        for bad in (0, -3):
            with pytest.raises(fs.BudgetError):
                fs.select(scores, values, bad, COVERAGE)

    def test_misaligned_inputs(self, rng):
        with pytest.raises(fs.AlignmentError):
            fs.select(np.ones(3), np.eye(4), 2, COVERAGE)

    def test_negative_scores_rejected(self):
        with pytest.raises(fs.ParameterError):
            fs.select(np.array([0.5, -0.1]), ORTHO2, 1, RELEVANCE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(fs.ParameterError, match="finite"):
            fs.select(np.array([0.5, bad]), ORTHO2, 1, RELEVANCE)

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
    def test_bit_identical_to_plain_across_random_instances(self, rng):
        for trial in range(150):
            scores, values = random_problem(rng, max_n=40, dim=5)
            n = len(scores)
            k = int(rng.integers(1, min(n, 12) + 1))
            preset = all_presets(0.35)[trial % 4]
            normalize = bool(trial % 2)
            plain = fs.select(scores, values, k, preset, normalize_coverage=normalize)
            lazy = fs.select(scores, values, k, preset, normalize_coverage=normalize, engine="lazy")
            assert lazy.positions == plain.positions
            assert lazy.gains == plain.gains
            assert lazy.objective == plain.objective

    def test_bit_identical_on_tie_heavy_instances(self, rng):
        for _ in range(40):
            # duplicated rows force exact gain ties at many steps
            base = np.eye(4)[rng.integers(0, 4, size=12)]
            values = base @ base.T
            scores = rng.integers(0, 3, size=12) / 2.0
            preset = fs.make_preset("coverage_oriented", 0.5)
            plain = fs.select(scores, values, 6, preset)
            lazy = fs.select(scores, values, 6, preset, engine="lazy")
            assert lazy.positions == plain.positions and lazy.gains == plain.gains

    def test_gain_blocks_do_not_change_bits(self, rng, monkeypatch):
        # Block sizes that leave a ragged last block must not change a bit
        # of either engine's output.
        cases = []
        for trial in range(20):
            scores, values = random_problem(rng, max_n=40, dim=5)
            k = int(rng.integers(1, min(len(scores), 12) + 1))
            cases.append((scores, values, k, all_presets(0.35)[trial % 4], bool(trial % 2)))
        for engine in fs.ENGINES:
            whole = [fs.select(s, v, k, p, normalize_coverage=nc, engine=engine) for s, v, k, p, nc in cases]
            for block_values in (1, 7, 40):
                monkeypatch.setattr(selection, "_BLOCK_VALUES", block_values)
                blocked = [fs.select(s, v, k, p, normalize_coverage=nc, engine=engine) for s, v, k, p, nc in cases]
                assert blocked == whole
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
        expected = [full_rescore_greedy(s, v, k, p, nc) for s, v, k, p, nc in cases]
        lazy = [fs.select(s, v, k, p, normalize_coverage=nc, engine="lazy") for s, v, k, p, nc in cases]
        for want, got in zip(expected, lazy):
            assert (got.positions, got.gains) == want
        # Ragged blocks change which rows are summed together, never a bit.
        for block_values in (None, 1, 5000, 1 << 20):
            if block_values is not None:
                monkeypatch.setattr(selection, "_BLOCK_VALUES", block_values)
            plain = [fs.select(s, v, k, p, normalize_coverage=nc) for s, v, k, p, nc in cases]
            assert plain == lazy
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

        def counting(simt, c, buf, rows=None):
            summed.append(simt.shape[0] if rows is None else rows.shape[0])
            return row_sums(simt, c, buf, rows)

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
        # Columns are the candidates s[., e].  Picking 1 drops 3's gain from
        # 6 to exactly 2, the gain 2 keeps untouched: with one-row batches 3
        # is re-summed first and ties fresh with the stale bound of 2.  Full
        # re-scoring takes the smaller position, 2, and so must the engine.
        columns = [
            [1, 1, -1, 1, -1],
            [-1, -1, 1, -1, -1],
            [1, 1, -1, -1, 1],
            [-1, -1, -1, -1, -1],
            [-1, -1, -1, -1, -1],
        ]
        values = np.array(columns, dtype=np.float64).T
        scores = np.zeros(5)
        want = full_rescore_greedy(scores, values, 2, COVERAGE, False)
        assert want == ((1, 2), (6.0, 2.0))
        for first_batch in (1, 16):
            monkeypatch.setattr(selection, "_FIRST_BATCH", first_batch)
            got = fs.select(scores, values, 2, COVERAGE)
            assert (got.positions, got.gains) == want
            monkeypatch.undo()


class TestSymmetricInPlaceRead:
    """A C-contiguous matrix equal to its transpose bit for bit is not copied."""

    @staticmethod
    def _count_copies(monkeypatch):
        copies = []
        transposed = selection._transposed

        def counting(values):
            copies.append(values.shape)
            return transposed(values)

        monkeypatch.setattr(selection, "_transposed", counting)
        return copies

    def test_gram_matrix_is_read_in_place(self, rng, monkeypatch):
        n, k = 1000, 32
        rows = unit_rows(rng, n, 64)
        scores, values = rng.uniform(0.0, 1.0, size=n), rows @ rows.T
        preset = fs.make_preset("coverage_oriented")
        copies = self._count_copies(monkeypatch)
        tracemalloc.start()
        try:
            result = fs.select(scores, values, k, preset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert copies == []
        assert peak < n * n * 8 / 4  # a transposed copy alone is n * n * 8 bytes
        assert (result.positions, result.gains) == full_rescore_greedy(scores, values, k, preset, False)

    @pytest.mark.parametrize("kind", ["asymmetric", "one_off_tile_entry", "signed_zero", "f_order", "strided"])
    def test_other_matrices_are_copied(self, kind, rng, monkeypatch):
        # n = 600 spans three 256-wide tiles, so (10, 500) lies off the
        # diagonal tiles; a signed zero differs only in its bits.
        n, k = 600, 24
        rows = unit_rows(rng, n, 16)
        scores, values = rng.uniform(0.0, 1.0, size=n), rows @ rows.T
        if kind == "asymmetric":
            scores, values = scene_problem(rng, n, asymmetric=True)
        elif kind == "one_off_tile_entry":
            values[10, 500] = np.nextafter(values[10, 500], 2.0)
        elif kind == "signed_zero":
            values[3, 7], values[7, 3] = 0.0, -0.0
        elif kind == "f_order":
            values = np.asfortranarray(values)
        else:
            wide = np.zeros((n, 2 * n))
            wide[:, ::2] = values
            values = wide[:, ::2]
        copies = self._count_copies(monkeypatch)
        for preset in all_presets(0.35)[1:]:
            result = fs.select(scores, values, k, preset)
            assert (result.positions, result.gains) == full_rescore_greedy(scores, values, k, preset, False)
        assert copies == [(n, n)] * 3


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
        import json

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
            state_small = fs.CoverageState(n)
            for p in small:
                state_small.update(p, values)
            state_big = fs.CoverageState(n)
            for p in big:
                state_big.update(p, values)
            gain_small = fs.marginal_gain(e, state_small, scores, values, preset)
            gain_big = fs.marginal_gain(e, state_big, scores, values, preset)
            assert gain_small >= gain_big - 1e-6
