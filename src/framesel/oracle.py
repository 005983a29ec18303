"""Exact small-instance solver and randomized property harness.

Greedy selection carries a (1 - 1/e) approximation guarantee for the
monotone submodular objective it maximizes.  This module certifies an
installed build against that theory: a brute-force enumerator computes
the true optimum on small ground sets, ``check_bound`` compares greedy
output against it over randomized instances, and ``property_suite``
probes monotonicity, submodularity, marginal-gain consistency and
empty-set normalization directly.

Random instances mirror the real pipeline's regime: semantic rows drawn
uniformly on the unit sphere (via normalized Gaussians), relevance
scores uniform on [0, 1].
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import FrameselError, ParameterError
from .pool import _count
from .selection import PRESET_NAMES, Preset, _coverage_vector, _gain, _instance, _terms, make_preset, select

# Enumeration is O(2^N); past this the oracle refuses rather than hangs.
MAX_EXACT_N = 20

DEFAULT_MAX_N = 12
DEFAULT_MAX_K = 4

GREEDY_RATIO_BOUND = 1.0 - 1.0 / math.e
RATIO_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OracleReport:
    """One greedy-vs-optimal comparison on a small instance."""

    n: int
    k: int
    preset: str
    optimal_value: float
    greedy_value: float
    ratio: float
    optimal_set: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class RandomInstance:
    """A randomized selection problem small enough for exact search."""

    index: int
    scores: np.ndarray
    values: np.ndarray
    k: int
    preset: Preset


def brute_force_optimum(r, sim, k: int, preset: Preset) -> tuple[float, tuple[int, ...]]:
    """Exact maximum of F over all position subsets of size <= k.

    Searching size <= k rather than exactly k keeps the check independent
    of the monotonicity argument that makes full budgets optimal.  Among
    subsets attaining the maximum, returns the lexicographically smallest
    (as a sorted position tuple).

    Raises:
        ParameterError, AlignmentError: as ``objective_terms``; also more
            than 20 candidates, or a budget ``select`` refuses.
    """
    scores, values = _instance(r, sim, preset)
    n = scores.shape[0]
    _refuse_past_exact_search(n)
    k = _count("budget", k)
    best_value = 0.0
    best_set: tuple[int, ...] = ()
    for size in range(1, min(k, n) + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            value = _value(scores, values, subset, preset)
            if value > best_value or (value == best_value and subset < best_set):
                best_value = value
                best_set = subset
    return best_value, best_set


def _refuse_past_exact_search(n: int) -> None:
    if n > MAX_EXACT_N:
        raise ParameterError(f"exact search handles at most {MAX_EXACT_N} candidates, got {n}")


def _index(positions) -> np.ndarray:
    # Sorted, distinct 1-based positions of a checked instance, unchecked.
    return np.asarray(positions, dtype=np.int64) - 1


def _value(scores, values, positions, preset: Preset) -> float:
    idx = _index(positions)
    return _terms(scores, idx, _coverage_vector(values, idx), preset, False)[2]


def random_instances(
    seed: int,
    count: int,
    max_n: int = DEFAULT_MAX_N,
    max_k: int = DEFAULT_MAX_K,
    presets: Iterable[Preset] | None = None,
) -> Iterator[RandomInstance]:
    """``count`` seeded random instances, cycling through presets.

    Checked on the call, before any draw: ``ParameterError`` for ``max_n`` past exact search,
    no presets, or a ``count``/``max_n``/``max_k`` not an integer >= 0/1/1.
    """
    _refuse_past_exact_search(max_n)
    presets = tuple(make_preset(name) for name in PRESET_NAMES) if presets is None else tuple(presets)
    for name, value, least in (("count", count, 0), ("max_n", max_n, 1), ("max_k", max_k, 1), ("preset count", len(presets), 1)):
        _count(name, value, least)
    return _draw_instances(seed, count, max_n, max_k, presets)


def _draw_instances(seed, count, max_n, max_k, presets) -> Iterator[RandomInstance]:
    rng = np.random.default_rng(seed)
    for index in range(count):
        n = int(rng.integers(1, max_n + 1))
        k = int(rng.integers(1, max_k + 1))
        dim = int(rng.integers(2, 9))
        rows = rng.normal(size=(n, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        values = rows @ rows.T
        scores = rng.uniform(0.0, 1.0, size=n)
        yield RandomInstance(
            index=index,
            scores=scores,
            values=values,
            k=min(k, n),
            preset=presets[index % len(presets)],
        )


def check_bound(instances: Iterable[RandomInstance]) -> list[OracleReport]:
    """Compare greedy to the exact optimum on each instance.

    Every ratio must land in [1 - 1/e - 1e-9, 1 + 1e-9]; the first
    violation aborts the run.

    Raises:
        FrameselError: a ratio fell outside the guaranteed band.
    """
    reports: list[OracleReport] = []
    for inst in instances:
        optimal_value, optimal_set = brute_force_optimum(inst.scores, inst.values, inst.k, inst.preset)
        result = select(inst.scores, inst.values, inst.k, inst.preset)
        greedy_value = result.objective
        ratio = 1.0 if optimal_value == 0.0 else greedy_value / optimal_value
        report = OracleReport(
            n=int(inst.scores.shape[0]),
            k=int(inst.k),
            preset=inst.preset.name,
            optimal_value=float(optimal_value),
            greedy_value=float(greedy_value),
            ratio=float(ratio),
            optimal_set=optimal_set,
        )
        if ratio < GREEDY_RATIO_BOUND - RATIO_TOLERANCE or ratio > 1.0 + RATIO_TOLERANCE:
            raise FrameselError(
                f"instance {inst.index} (n={report.n}, k={report.k}, preset={report.preset}): "
                f"greedy/optimal ratio {ratio!r} outside [{GREEDY_RATIO_BOUND}, 1]"
            )
        reports.append(report)
    return reports


def oracle_report_doc(report: OracleReport) -> dict:
    return dataclasses.asdict(report)


@dataclass(frozen=True)
class PropertySummary:
    """Outcome of a randomized property run; failures reported, not thrown."""

    trials: int
    checks: dict[str, int]
    failures: int
    first_counterexample: str | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_subset(rng, positions, max_size) -> list[int]:
    size = int(rng.integers(0, max_size + 1))
    if size == 0:
        return []
    return sorted(int(p) for p in rng.choice(positions, size=size, replace=False))


def property_suite(seed: int, trials: int) -> PropertySummary:
    """Probe the objective's structural guarantees on random instances.

    Each trial runs every check once on one instance, scoring its sets with
    the evaluators behind ``objective_terms`` and ``marginal_gain``: C of the
    empty set is exactly zero; F is monotone under set growth (tolerance
    1e-6); marginal gains diminish from a subset A to a superset B
    (tolerance 1e-6); and the incremental gain formula matches a direct
    F(S + {e}) - F(S) recomputation (tolerance 1e-5).
    """
    rng = np.random.default_rng(seed)
    checks = dict.fromkeys(("empty_set_zero", "monotonicity", "submodularity", "marginal_consistency"), trials)
    failures = 0
    first: str | None = None
    for trial, inst in enumerate(random_instances(seed + 1, trials, max_n=10)):
        preset = inst.preset
        scores, values = _instance(inst.scores, inst.values, preset)
        n = scores.shape[0]
        positions = np.arange(1, n + 1)
        found: list[str] = []

        empty = _value(scores, values, (), preset)
        if empty != 0.0:
            found.append(f"empty_set_zero: F(empty) = {empty!r}")

        small = _random_subset(rng, positions, n)
        extra = _random_subset(rng, positions, n)
        union = sorted(set(small) | set(extra))
        f_small = _value(scores, values, small, preset)
        f_union = _value(scores, values, union, preset)
        if f_union < f_small - 1e-6:
            found.append(f"monotonicity: F({union}) = {f_union!r} < F({small}) = {f_small!r}")

        big = _random_subset(rng, positions, n - 1)
        sub = [p for p in big if rng.random() < 0.5]
        outside = [int(p) for p in positions if p not in big]
        e = int(outside[int(rng.integers(0, len(outside)))])
        gain_a = _gain(scores, values, _index([e]), _index(sub), preset)
        gain_b = _gain(scores, values, _index([e]), _index(big), preset)
        if gain_a < gain_b - 1e-6:
            found.append(f"submodularity: gain({e}|A) = {gain_a!r} < gain({e}|B) = {gain_b!r}")

        base = _random_subset(rng, positions, n - 1)
        f_base = _value(scores, values, base, preset)
        for cand in positions:
            cand = int(cand)
            if cand in base:
                continue
            inc = _gain(scores, values, _index([cand]), _index(base), preset)
            direct = _value(scores, values, sorted(base + [cand]), preset) - f_base
            if abs(inc - direct) > 1e-5:
                found.append(f"marginal_consistency: gain({cand}|{base}) = {inc!r} vs recomputed {direct!r}")
                break

        failures += len(found)
        if found and first is None:
            first = f"trial {trial}: {found[0]}"

    return PropertySummary(trials=trials, checks=checks, failures=failures, first_counterexample=first)


def property_summary_doc(summary: PropertySummary) -> dict:
    return {**dataclasses.asdict(summary), "passed": summary.passed}
