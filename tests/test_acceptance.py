"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
one-line pass summaries).  Each test is self-contained and seeded, so a
pass here is reproducible bit-for-bit.
"""

import math
import time

import numpy as np
import pytest

import framesel as fs
from conftest import all_presets, greedy_records, random_problem, rows_with_cosines, run_cli, read_json_file, unit_rows, write_fixture_manifest
from reference import ref_topk
from test_routing import KEYWORDS


def _pass(num: int, detail: str) -> None:
    print(f"PASS criterion {num:02d}: {detail}")


def test_criterion_01_greedy_bound():
    """Greedy achieves >= (1 - 1/e - 1e-9) of the exact optimum on 1000
    random instances (n <= 12, k <= 4, all presets) in under 60 s."""
    start = time.perf_counter()
    instances = fs.random_instances(20260814, 1000)
    reports = fs.check_bound(instances)
    elapsed = time.perf_counter() - start
    assert len(reports) == 1000
    worst = min(rep.ratio for rep in reports)
    assert worst >= fs.GREEDY_RATIO_BOUND - 1e-9
    assert all(rep.ratio <= 1.0 + 1e-9 for rep in reports)
    assert elapsed < 60.0
    _pass(1, f"1000 instances, worst greedy/optimal ratio {worst:.6f}, {elapsed:.2f}s")


def test_criterion_02_submodularity_and_monotonicity():
    """500 random (A subset of B, e) triples per preset show diminishing
    returns and a monotone objective, both within 1e-6."""
    rng = np.random.default_rng(2)
    triples = 0
    for preset in all_presets():
        for _ in range(500):
            scores, values = random_problem(rng, max_n=10)
            n = len(scores)
            positions = np.arange(1, n + 1)
            size = int(rng.integers(0, n))
            big = sorted(int(p) for p in rng.choice(positions, size=size, replace=False))
            sub = [p for p in big if rng.random() < 0.5]
            outside = [int(p) for p in positions if p not in big]
            e = int(outside[int(rng.integers(0, len(outside)))])

            gain_sub = fs.marginal_gain(e, sub, scores, values, preset)
            gain_big = fs.marginal_gain(e, big, scores, values, preset)
            assert gain_sub >= gain_big - 1e-6

            f_sub = fs.objective_value(sub, scores, values, preset)
            f_big = fs.objective_value(big, scores, values, preset)
            f_ext = fs.objective_value(sorted(big + [e]), scores, values, preset)
            assert f_big >= f_sub - 1e-6
            assert f_ext >= f_big - 1e-6
            triples += 1
    assert triples == 2000
    _pass(2, "500 diminishing-returns + monotonicity triples per preset, zero failures")


def test_criterion_03_marginal_gain_consistency():
    """At every step of greedy runs on 100 random instances (n <= 50),
    the incremental gain of every remaining candidate equals the
    recomputed F(S + e) - F(S) within 1e-5."""
    rng = np.random.default_rng(3)
    presets = all_presets()
    checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 51))
        scores, values = random_problem(rng, n=n, dim=8)
        preset = presets[trial % len(presets)]
        k = int(rng.integers(1, min(n, 8) + 1))
        picked: list[int] = []
        f_cur = 0.0
        for _ in range(k):
            best_gain, best_pos = -math.inf, None
            for cand in range(1, n + 1):
                if cand in picked:
                    continue
                inc = fs.marginal_gain(cand, picked, scores, values, preset)
                direct = fs.objective_value(sorted(picked + [cand]), scores, values, preset) - f_cur
                assert abs(inc - direct) <= 1e-5, (trial, cand, inc, direct)
                checked += 1
                if inc > best_gain:
                    best_gain, best_pos = inc, cand
            picked.append(best_pos)
            f_cur = fs.objective_value(sorted(picked), scores, values, preset)
        result = fs.select(scores, values, k, preset)
        assert set(result.positions) == set(picked)
    _pass(3, f"{checked} gain evaluations matched objective differences within 1e-5")


def test_criterion_04_empty_set_normalization():
    """Coverage of the empty set is exactly zero on arbitrary instances."""
    rng = np.random.default_rng(4)
    for _ in range(50):
        scores, values = random_problem(rng)
        for preset in all_presets():
            assert fs.objective_terms((), scores, values, preset)[1] == 0.0
            assert fs.objective_terms((), scores, values, preset, normalize_coverage=True)[1] == 0.0
            assert fs.objective_value((), scores, values, preset) == 0.0
    _pass(4, "C(empty) == 0.0 exactly on 50 random instances, all presets")


def test_criterion_05_relevance_only_equivalence():
    """With weights (1, 0), selection equals top-k by score with
    smallest-position tie-breaking, on 100 instances with repeated scores."""
    rng = np.random.default_rng(5)
    preset = fs.make_preset("relevance_only")
    tie_instances = 0
    for _ in range(100):
        scores, values = random_problem(rng, quantized_scores=True)
        n = len(scores)
        k = int(rng.integers(1, n + 1))
        if len(set(scores.tolist())) < n:
            tie_instances += 1
        result = fs.select(scores, values, k, preset)
        assert result.positions == ref_topk(scores.tolist(), k)
    assert tie_instances > 20, "quantized scores should produce plenty of ties"
    _pass(5, f"top-k equivalence on 100 instances ({tie_instances} with ties)")


def test_criterion_06_duplicate_suppression():
    """A semantic duplicate of a selected frame has marginal coverage gain
    <= 1e-6 and is skipped while strictly-positive-gain candidates remain."""
    rows = np.array(
        [
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],  # exact duplicate of position 1
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [math.sqrt(0.5), math.sqrt(0.5), 0.0],
        ]
    )
    values = rows @ rows.T
    scores = np.full(5, 0.5)
    preset = fs.make_preset("coverage_only")

    result = fs.select(scores, values, 4, preset)
    picked = set(result.positions)
    assert len(picked & {1, 2}) == 1, "exactly one copy of the duplicate pair"
    assert all(g > 1e-6 for g in result.gains), "every accepted step had real gain"

    survivor = (picked & {1, 2}).pop()
    duplicate = 3 - survivor
    assert fs.marginal_gain(duplicate, result.positions, scores, values, preset) <= 1e-6
    assert fs.marginal_gain(duplicate, [survivor], scores, values, preset) <= 1e-6
    _pass(6, f"duplicate of position {survivor} never selected; residual gain <= 1e-6")


def test_criterion_07_alignment_invariants():
    """1000 random (fps, total_frames, cap) pools: strictly increasing,
    bounded, endpoint-pinned when thinned, identity when duration <= cap,
    frame indices clamped into [0, total_frames - 1]."""
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        fps = float(rng.uniform(0.1, 120.0))
        frames = int(rng.integers(1, 5_000_001))
        cap = int(rng.integers(2, 1501))
        meta = fs.VideoMeta(video_id="v", fps=fps, total_frames=frames)
        duration = meta.duration_seconds
        if duration < 1:
            continue
        pool = fs.build_pool(meta, cap=cap)
        secs = pool.seconds
        assert all(b > a for a, b in zip(secs, secs[1:]))
        assert 0 <= secs[0] and secs[-1] <= duration - 1
        if duration <= cap:
            assert secs == tuple(range(duration))
        else:
            assert len(secs) == cap
            assert secs[0] == 0 and secs[-1] == duration - 1
        for pos in {1, (pool.n + 1) // 2, pool.n}:
            fi = fs.frame_index_of_second(meta, fs.second_of_position(pool, pos))
            assert 0 <= fi <= frames - 1
        checked += 1
    _pass(7, "1000 pools satisfied ordering, pinning, identity and clamping invariants")


def test_criterion_08_routing_correctness():
    """fit_routing attains each row maximum, honors the preset tie order,
    and route composes prediction with table lookup deterministically."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        table = {
            qtype: {name: float(rng.uniform(0.0, 1.0)) for name in fs.PRESET_ORDER}
            for qtype in fs.DEFAULT_TYPES
        }
        fitted = fs.fit_routing(table)
        for qtype, row in table.items():
            assert row[fitted.mapping[qtype]] == max(row.values())

    tied = {
        "count": {name: 0.25 for name in fs.PRESET_ORDER},
        "order": {
            "relevance_only": 0.1,
            "relevance_oriented": 0.8,
            "coverage_oriented": 0.8,
            "coverage_only": 0.3,
        },
    }
    fitted = fs.fit_routing(tied)
    assert fitted.mapping["count"] == "relevance_only"
    assert fitted.mapping["order"] == "relevance_oriented"

    examples = [(f"how many people appear {i}", "count") for i in range(30)]
    examples += [(f"what is the overall theme {i}", "topic_reasoning") for i in range(30)]
    model = fs.train_classifier(examples)
    table = fs.fit_routing(
        {
            "count": {"relevance_only": 0.4, "relevance_oriented": 0.9, "coverage_oriented": 0.2, "coverage_only": 0.1},
            "topic_reasoning": {"relevance_only": 0.1, "relevance_oriented": 0.2, "coverage_oriented": 0.3, "coverage_only": 0.9},
        }
    )
    question = "how many times does the dog appear"
    qtype, _ = fs.predict_type(model, question)
    assert qtype == "count"
    routed = fs.route(model, table, question)
    assert routed == fs.route_for_type(table, qtype)
    assert routed == fs.route(model, table, question), "routing must be deterministic"
    assert routed.name == "relevance_oriented"
    assert fs.route_for_type(table, "topic_reasoning").name == "coverage_only"
    _pass(8, "200 fitted tables attain row maxima; tie order and composition hold")


def test_criterion_09_classifier_protocol():
    """On a 7-class keyword-separable corpus (60 examples per class,
    80/20 split), 10-epoch training reaches >= 99% held-out accuracy with
    a non-increasing training loss."""
    train, held = [], []
    for qtype, words in sorted(KEYWORDS.items()):
        for i in range(60):
            text = f"{words[i % 5]} {words[(i + 1) % 5]} {words[(i + 2) % 5]} clip {i}"
            (train if i < 48 else held).append((text, qtype))
    assert len(train) == 7 * 48 and len(held) == 7 * 12

    model = fs.train_classifier(train, epochs=10, learning_rate=0.5)
    evaluation = fs.evaluate_classifier(model, held)
    assert evaluation.accuracy >= 0.99
    losses = model.training_loss
    assert len(losses) == 11
    assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))
    _pass(9, f"held-out accuracy {evaluation.accuracy:.4f}, loss {losses[0]:.4f} -> {losses[-1]:.4f}")


def test_criterion_10_baseline_dominance(tmp_path):
    """compare reports greedy F >= uniform F - 1e-9 on 100 random
    instances across all presets; at full budget the rows are identical.

    Instances use the selective regime (pools of 30..120, budgets 4..16).
    On tiny instances a uniform grid can coincide with the exact optimum
    and edge out greedy, which only promises 1 - 1/e of the optimum; in
    the selective regime greedy dominates by a wide margin on every run.
    """
    rng = np.random.default_rng(10)
    runs = 0
    for i in range(100):
        n = int(rng.integers(30, 121))
        inst_dir = tmp_path / f"i{i}"
        inst_dir.mkdir()
        manifest = write_fixture_manifest(
            inst_dir,
            rows_with_cosines(rng.uniform(0.0, 1.0, n)),
            unit_rows(rng, n, 5),
            np.array([[1.0, 0.0]]),
        )
        k = int(rng.integers(4, 17))
        for preset in fs.PRESET_NAMES:
            out = inst_dir / f"{preset}.json"
            code, _, _ = run_cli(
                ["compare", "--manifest", manifest, "--preset", preset, "--k", k, "--out", out, "--quiet"]
            )
            assert code == 0
            doc = read_json_file(out)
            assert doc["greedy"]["objective"] >= doc["uniform"]["objective"] - 1e-9, (i, preset)
            runs += 1
        if i < 5:
            out = inst_dir / "full.json"
            code, _, _ = run_cli(
                ["compare", "--manifest", manifest, "--preset", "coverage_oriented", "--k", n, "--out", out, "--quiet"]
            )
            assert code == 0
            doc = read_json_file(out)
            assert doc["greedy"] == doc["uniform"]
            assert doc["delta"] == {"relevance": 0.0, "coverage": 0.0, "objective": 0.0}
    assert runs == 400
    _pass(10, "greedy dominated uniform on 400 compare runs; full-budget rows identical")


def test_criterion_11_performance_envelope():
    """n = 1000, k = 32 selection runs in under 2 s, and doubling n at
    fixed k scales runtime by roughly 4x (between 2.5x and 6x)."""
    preset = fs.make_preset("relevance_oriented")

    def instance(n: int):
        rng = np.random.default_rng(11)
        rows = unit_rows(rng, n, 64)
        values = rows @ rows.T
        return rng.uniform(0.0, 1.0, n), values

    instances = {n: instance(n) for n in (1000, 2000)}
    best = dict.fromkeys(instances, math.inf)
    # Best of five per size, the sizes alternating, so that a slow spell
    # on a shared machine slows both sizes' runs rather than one.
    for _ in range(5):
        for n, (scores, values) in instances.items():
            t0 = time.perf_counter()
            fs.select(scores, values, 32, preset)
            best[n] = min(best[n], time.perf_counter() - t0)
    t_small, t_large = best[1000], best[2000]
    ratio = t_large / t_small
    assert t_small < 2.0
    assert 2.5 <= ratio <= 6.0
    _pass(11, f"t(1000)={t_small * 1e3:.1f}ms, t(2000)/t(1000)={ratio:.2f}")


def test_criterion_11_work_ratio():
    """Criterion 11's scaling without a clock: on its own instances the
    values greedy re-sums (rows x n) grow between 2.5x and 6x from n = 1000
    to n = 2000, a rerun repeats every step record, and the summed (rows,
    calls) are pinned exactly, so a change to the re-sum schedule shows."""
    preset = fs.make_preset("relevance_oriented")

    def work(n: int):
        # Criterion 11's instance of size n: its step records, bounds included.
        rng = np.random.default_rng(11)
        rows = unit_rows(rng, n, 64)
        records = greedy_records(rng.uniform(0.0, 1.0, n), rows @ rows.T, 32, preset)
        return [(r.index, r.gain, r.rows, r.calls, r.total.tobytes()) for r in records]

    runs = {n: work(n) for n in (1000, 2000)}
    w_small, w_large = (sum(step[2] for step in runs[n]) * n for n in runs)
    ratio = w_large / w_small
    assert 2.5 <= ratio <= 6.0
    assert {n: work(n) for n in runs} == runs
    assert {n: (sum(step[2] for step in steps), sum(step[3] for step in steps)) for n, steps in runs.items()} == {
        1000: (9_806, 100),
        2000: (21_327, 138),
    }
    _pass(11, f"{w_small // 1000} rows at n=1000, {w_large // 2000} at n=2000, work ratio {ratio:.2f}")


def test_criterion_12_format_round_trips(tmp_path):
    """Every artifact survives write -> read -> write byte-identically;
    corrupted magic, version and row count each raise a format error."""
    rng = np.random.default_rng(12)

    emb_a = tmp_path / "a.fsel"
    emb_b = tmp_path / "b.fsel"
    fs.write_embedding_file(emb_a, unit_rows(rng, 7, 5))
    fs.write_embedding_file(emb_b, fs.read_embedding_file(emb_a))
    assert emb_a.read_bytes() == emb_b.read_bytes()

    pool = fs.build_pool(fs.VideoMeta(video_id="rt", fps=2.0, total_frames=24))
    pool_a, pool_b = tmp_path / "pa.json", tmp_path / "pb.json"
    fs.write_pool_manifest(pool, pool_a)
    fs.write_pool_manifest(fs.read_pool_manifest(pool_a), pool_b)
    assert pool_a.read_bytes() == pool_b.read_bytes()

    scores, values = random_problem(rng, n=pool.n)
    result = fs.select(scores, values, 3, fs.make_preset("coverage_oriented"), pool)
    sel_a, sel_b = tmp_path / "sa.json", tmp_path / "sb.json"
    fs.write_selection_result(result, sel_a)
    fs.write_selection_result(fs.read_selection_result(sel_a), sel_b)
    assert sel_a.read_bytes() == sel_b.read_bytes()

    examples = [(f"how many cars pass {i}", "count") for i in range(20)]
    examples += [(f"what is the story about {i}", "plotQA") for i in range(20)]
    model = fs.train_classifier(examples)
    mod_a, mod_b = tmp_path / "ma.json", tmp_path / "mb.json"
    fs.write_model(model, mod_a)
    fs.write_model(fs.read_model(mod_a), mod_b)
    assert mod_a.read_bytes() == mod_b.read_bytes()

    table = fs.fit_routing(
        {
            "count": {"relevance_only": 0.4, "relevance_oriented": 0.9, "coverage_oriented": 0.2, "coverage_only": 0.1},
            "plotQA": {"relevance_only": 0.6, "relevance_oriented": 0.5, "coverage_oriented": 0.4, "coverage_only": 0.3},
        }
    )
    rt_a, rt_b = tmp_path / "ra.json", tmp_path / "rb.json"
    fs.write_routing_table(table, rt_a)
    fs.write_routing_table(fs.read_routing_table(rt_a), rt_b)
    assert rt_a.read_bytes() == rt_b.read_bytes()

    healthy = emb_a.read_bytes()
    corruptions = {
        "magic": b"XXXX" + healthy[4:],
        "version": healthy[:4] + (99).to_bytes(4, "little") + healthy[8:],
        "row count": healthy[:8] + (3).to_bytes(4, "little") + healthy[12:],
    }
    bad = tmp_path / "bad.fsel"
    for label, payload in corruptions.items():
        bad.write_bytes(payload)
        with pytest.raises(fs.FormatError):
            fs.read_embedding_file(bad)
    _pass(12, "five artifacts round-tripped byte-identically; three corruptions rejected")
