"""Brute-force optimum, greedy bound certification, property harness."""

import re

import numpy as np
import pytest

import framesel as fs
from framesel import oracle
from conftest import random_problem
from reference import ref_branch_and_bound, ref_brute_force, ref_objective
from test_selection import scene_problem

COVERAGE = fs.make_preset("coverage_only")
RELEVANCE = fs.make_preset("relevance_only")
BOTH = fs.make_preset("coverage_oriented", 0.5)

CHECKS = ("empty_set_zero", "monotonicity", "submodularity", "marginal_consistency")
_VALUE, _GAIN = oracle._value, oracle._gain
# Correct code fails no check, so only a broken evaluator reaches the failure
# path: (id, evaluator replaced, its replacement, seed, trials, failures, first
# counterexample).  Each one is first caught by a different check.
BROKEN_EVALUATORS = [
    ("empty-set-one", "_value", lambda s, v, p, pr: 1.0 if len(p) == 0 else _VALUE(s, v, p, pr), 3, 40, 50,
     "trial 0: empty_set_zero: F(empty) = 1.0"),
    ("minus-size", "_value", lambda s, v, p, pr: -float(len(p)), 3, 40, 65,
     "trial 0: monotonicity: F([1, 2, 3, 4, 5, 6, 7, 8]) = -8.0 < F([1, 3, 4, 5, 6, 7, 8]) = -7.0"),
    ("gain-is-size", "_gain", lambda s, v, e, idx, pr: float(len(idx)), 0, 20, 34,
     "trial 0: submodularity: gain(4|A) = 1.0 < gain(4|B) = 2.0"),
    ("gain-plus-one", "_gain", lambda s, v, e, idx, pr: _GAIN(s, v, e, idx, pr) + 1.0, 3, 40, 40,
     "trial 0: marginal_consistency: gain(1|[3, 5, 7]) = 1.2334762686616518 vs recomputed 0.23347626866165205"),
]


class TestBruteForce:
    def test_modular_optimum_is_top_k_sum(self):
        value, subset = fs.brute_force_optimum(np.array([0.2, 0.9, 0.5]), np.eye(3), 2, RELEVANCE)
        assert value == pytest.approx(1.4, abs=1e-12)
        assert subset == (2, 3)

    def test_single_unit_vector_covers_itself(self):
        value, subset = fs.brute_force_optimum(np.array([0.3]), np.array([[1.0]]), 1, COVERAGE)
        assert value == 2.0 and subset == (1,)

    def test_instance_too_large(self, rng):
        scores, values = random_problem(rng, n=21, dim=4)
        with pytest.raises(fs.ParameterError, match="^exact search handles at most 20 candidates, got 21$"):
            fs.brute_force_optimum(scores, values, 3, COVERAGE)

    def test_bad_budget(self):
        with pytest.raises(fs.ParameterError, match="^budget must be an integer >= 1, got 0$"):
            fs.brute_force_optimum(np.array([0.5]), np.array([[1.0]]), 0, COVERAGE)

    def test_budget_follows_select(self, rng):
        # k = 2.5 and 2.0 once raised TypeError, and k = True searched k = 1.
        scores, values = random_problem(rng, n=6)
        for bad in (2.5, True, np.True_):
            match = f"^budget must be an integer >= 1, got {re.escape(repr(bad))}$"
            with pytest.raises(fs.ParameterError, match=match):
                fs.brute_force_optimum(scores, values, bad, BOTH)
            with pytest.raises(fs.ParameterError, match=match):
                fs.select(scores, values, bad, BOTH)
        want = fs.brute_force_optimum(scores, values, 2, BOTH)
        assert len(want[1]) == 2
        assert fs.brute_force_optimum(scores, values, 2.0, BOTH) == want
        assert fs.select(scores, values, 2.0, BOTH).positions == fs.select(scores, values, 2, BOTH).positions

    def test_agrees_with_independent_enumerator(self, rng):
        for _ in range(100):
            scores, values = random_problem(rng, max_n=8)
            k = int(rng.integers(1, 4))
            alpha, beta = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            preset = fs.Preset(name="custom", alpha=alpha, beta=beta)
            got_value, got_set = fs.brute_force_optimum(scores, values, k, preset)
            want_value, _ = ref_brute_force(scores.tolist(), values.tolist(), k, alpha, beta)
            assert got_value == pytest.approx(want_value, abs=1e-9)
            achieved = ref_objective(got_set, scores.tolist(), values.tolist(), alpha, beta)
            assert achieved == pytest.approx(want_value, abs=1e-9)

    def test_ten_candidate_instance_against_reference(self, rng):
        scores, values = random_problem(rng, n=10)
        preset = fs.Preset(name="custom", alpha=1.0, beta=1.0)
        got_value, got_set = fs.brute_force_optimum(scores, values, 3, preset)
        want_value, want_set = ref_brute_force(scores.tolist(), values.tolist(), 3, 1.0, 1.0)
        assert got_value == pytest.approx(want_value, abs=1e-9)
        assert got_set == want_set

    def test_lexicographic_tie_rule(self):
        # rows 1 and 2 identical: {1, 3} and {2, 3} tie exactly; {1, 3} wins
        sem = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        _, subset = fs.brute_force_optimum(np.zeros(3), sem @ sem.T, 2, COVERAGE)
        assert subset == (1, 3)


class TestExactSearch:
    """The branch and bound reaches true optima past brute force's reach."""

    def test_branch_and_bound_equals_brute_force_on_oracle_instances(self):
        for inst in fs.random_instances(7, 200):
            want, _ = fs.brute_force_optimum(inst.scores, inst.values, inst.k, inst.preset)
            greedy = fs.select(inst.scores, inst.values, inst.k, inst.preset).positions
            for incumbent in ((), greedy):
                got, subset = ref_branch_and_bound(inst.scores, inst.values, inst.k, inst.preset.alpha, inst.preset.beta, incumbent)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), inst.index
                assert len(subset) <= inst.k

    def test_greedy_bound_on_scene_instances_past_brute_force(self):
        # 4-8 scenes of unit rows; n and K past MAX_EXACT_N's enumeration.
        rng = np.random.default_rng(15)
        presets = [fs.make_preset(name) for name in ("coverage_oriented", "relevance_oriented", "coverage_only")]
        for preset in presets:
            for n, k in ((30, 4), (40, 5), (50, 5), (60, 5)):
                scores, values = scene_problem(rng, n, dim=32, scene_rows=(n // 8, n // 4 + 1))
                greedy = fs.select(scores, values, k, preset)
                optimum, _ = ref_branch_and_bound(scores, values, k, preset.alpha, preset.beta, greedy.positions)
                assert fs.GREEDY_RATIO_BOUND * optimum <= greedy.objective <= optimum * (1.0 + 1e-12), (preset.name, n, k)


class TestCheckBound:
    def test_modular_only_ratios_are_exactly_one(self):
        presets = (RELEVANCE,)
        reports = fs.check_bound(fs.random_instances(5, 40, presets=presets))
        for report in reports:
            assert report.ratio == pytest.approx(1.0, abs=1e-9)

    def test_identical_rows_coverage_only_ratio_one(self):
        sem = np.tile([1.0, 0.0], (4, 1))
        inst = fs.RandomInstance(
            index=0, scores=np.zeros(4), values=sem @ sem.T, k=2, preset=COVERAGE
        )
        report = fs.check_bound([inst])[0]
        assert report.ratio == pytest.approx(1.0, abs=1e-12)
        assert report.optimal_value == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("factor", [0.1, 1.01, 0.6], ids=["shrunk", "inflated", "just-below-the-band"])
    def test_violation_raises(self, monkeypatch, factor):
        # sabotage the selector so greedy appears to miss the bound, or to beat the optimum;
        # greedy is near-optimal on these instances, so x0.6 lands just under 1 - 1/e ~ 0.632
        import framesel.oracle as oracle_module

        real_select = oracle_module.select

        def bad_select(r, sim, k, preset, pool=None, **kwargs):
            result = real_select(r, sim, k, preset, pool, **kwargs)
            object.__setattr__(result, "objective", result.objective * factor)
            return result

        monkeypatch.setattr(oracle_module, "select", bad_select)
        with pytest.raises(fs.FrameselError, match="outside"):
            fs.check_bound(fs.random_instances(3, 5))

    def test_report_doc_shape(self):
        report = fs.check_bound(fs.random_instances(1, 1))[0]
        from framesel.oracle import oracle_report_doc

        doc = oracle_report_doc(report)
        assert list(doc) == ["n", "k", "preset", "optimal_value", "greedy_value", "ratio", "optimal_set"]


class TestPropertySuite:
    def test_all_checks_pass(self):
        summary = fs.property_suite(seed=1, trials=120)
        assert summary.passed
        assert summary.failures == 0
        assert summary.first_counterexample is None
        assert set(summary.checks) == {
            "empty_set_zero",
            "monotonicity",
            "submodularity",
            "marginal_consistency",
        }
        assert all(count == 120 for count in summary.checks.values())

    def test_zero_trials_is_a_vacuous_pass(self):
        summary = fs.property_suite(seed=1, trials=0)
        assert summary.passed and summary.trials == 0
        assert all(count == 0 for count in summary.checks.values())

    @pytest.mark.parametrize(
        ("name", "broken", "seed", "trials", "failures", "first"),
        [case[1:] for case in BROKEN_EVALUATORS],
        ids=[case[0] for case in BROKEN_EVALUATORS],
    )
    def test_broken_evaluator_counted_and_reported(self, name, broken, seed, trials, failures, first, monkeypatch):
        monkeypatch.setattr(oracle, name, broken)
        summary = fs.property_suite(seed=seed, trials=trials)
        assert summary == fs.PropertySummary(trials, dict.fromkeys(CHECKS, trials), failures, first)
        assert not summary.passed

    def test_determinism(self):
        a = fs.property_suite(seed=7, trials=30)
        b = fs.property_suite(seed=7, trials=30)
        assert a == b

    def test_coverage_stays_submodular_on_an_asymmetric_matrix(self, rng):
        # Facility-location coverage is submodular for any finite matrix.
        scores, values = random_problem(rng, n=6)
        corrupted = values.copy()
        corrupted[0, 5] = 0.9
        corrupted[5, 0] = -0.4
        for _ in range(50):
            big = sorted(
                rng.choice(np.arange(1, 7), size=int(rng.integers(0, 5)), replace=False).tolist()
            )
            small = [p for p in big if rng.random() < 0.5]
            outside = [p for p in range(1, 7) if p not in big]
            e = int(outside[int(rng.integers(0, len(outside)))])
            gain_small = fs.marginal_gain(e, small, scores, corrupted, BOTH)
            gain_big = fs.marginal_gain(e, big, scores, corrupted, BOTH)
            assert gain_small >= gain_big - 1e-6


@pytest.mark.parametrize(
    ("kwargs", "match"),
    [
        ({"count": -1}, "count must be an integer >= 0, got -1"),
        ({"count": 2.5}, "count must be an integer >= 0, got 2.5"),
        ({"max_n": 0}, "max_n must be an integer >= 1, got 0"),
        ({"max_k": True}, "max_k must be an integer >= 1, got True"),
        ({"presets": ()}, "preset count must be an integer >= 1, got 0"),
        ({"max_n": 21}, "exact search handles at most 20 candidates, got 21"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"seed": True}, "seed must be an integer >= 0, got True"),
    ],
    ids=["count-negative", "count-fraction", "max-n-zero", "max-k-bool", "no-presets", "max-n-past-exact-search",
         "seed-negative", "seed-fraction", "seed-bool"],
)
def test_random_instances_refuse_bad_arguments_on_the_call(kwargs, match):
    # max_n = 0 raised numpy's ValueError and no presets a ZeroDivisionError,
    # each only at the first draw; count = 2.5 raised a TypeError there, as
    # did seed = 1.5, and seed = -1 a ValueError; count = -1 drew nothing,
    # and max_k = True was read as 1, as was seed = True.
    args = {"seed": 0, "count": 2, **kwargs}
    with pytest.raises(fs.ParameterError, match=match):
        fs.random_instances(**args)


def test_integral_numbers_stand_for_their_ints():
    # count = 2.0 passed the count rule and seed = 2.0 went unchecked; each raised a TypeError at the first draw.
    want = list(fs.random_instances(2, 2, max_n=5, max_k=3))
    for got, inst in zip(fs.random_instances(2.0, 2.0, max_n=5.0, max_k=np.int64(3)), want, strict=True):
        np.testing.assert_array_equal(got.values, inst.values)
        assert got.k == inst.k and got.preset == inst.preset


def test_random_instances_are_deterministic_and_in_regime():
    a = list(fs.random_instances(42, 20))
    b = list(fs.random_instances(42, 20))
    for inst_a, inst_b in zip(a, b):
        np.testing.assert_array_equal(inst_a.scores, inst_b.scores)
        np.testing.assert_array_equal(inst_a.values, inst_b.values)
        assert inst_a.k == inst_b.k and inst_a.preset == inst_b.preset
    for inst in a:
        n = inst.scores.shape[0]
        assert 1 <= n <= 12 and 1 <= inst.k <= min(4, n)
        assert (inst.scores >= 0).all() and (inst.scores <= 1).all()
        np.testing.assert_allclose(np.diag(inst.values), 1.0, atol=1e-9)
        assert inst.values.max() <= 1 + 1e-9 and inst.values.min() >= -1 - 1e-9
