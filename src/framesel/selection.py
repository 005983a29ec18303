"""Greedy budgeted frame selection.

The objective over a position set S is

    F(S) = alpha * R(S) + beta * C(S)

where R(S) sums the per-candidate relevance scores (modular) and C(S) is a
facility-location coverage term: every candidate j is served by the most
similar selected candidate, floored at a baseline of -1 so that C({}) = 0,

    C(S) = sum_j ( max(-1, max_{i in S} s[j, i]) - (-1) ).

F is normalized, monotone and submodular for alpha, beta >= 0, so greedy
selection under a budget K carries the classic (1 - 1/e) approximation
guarantee.  The selector keeps a coverage vector c[j] = best similarity of
j to the selected set, which makes each candidate's marginal gain an O(N)
computation and one greedy run O(K * N^2).

Two engines are provided.  ``plain`` keeps every candidate's exact gain
and, after each pick, re-sums only the gains that pick can change: the
pick raises c at some columns J, and a candidate's gain can move only if
its similarity reaches the old c at some column of J.  On scene-structured
video, once every scene has a pick, a new pick raises c inside its own
scene only, so most gains keep their cached bits; when most rows would be
re-summed it makes one contiguous pass over all of them instead, so the
worst case stays O(K * N^2).  ``lazy`` keeps stale gains in a priority
queue and re-scores only entries that surface at the top; stale values are
valid upper bounds under diminishing returns.  Both engines share the
exact same per-candidate arithmetic (and both break ties by position), so
they produce bit-identical selections.

Positions are 1-based throughout the public surface, matching embedding
row order; ties at the argmax go to the smallest position, i.e. earliest
time.  All accumulation is in float64.  One run mutates only its private
coverage state, so shared score/similarity inputs stay read-only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    BudgetError,
    DuplicateSelectionError,
    FormatError,
    ParameterError,
)
from .fileio import read_json, require_key, write_json
from .pool import CandidatePool, frame_index_of_second

COVERAGE_BASELINE = -1.0

PRESET_NAMES = (
    "relevance_only",
    "coverage_only",
    "relevance_oriented",
    "coverage_oriented",
)

ENGINES = ("plain", "lazy")


@dataclass(frozen=True)
class Preset:
    """A named (alpha, beta) trade-off between relevance and coverage."""

    name: str
    alpha: float
    beta: float
    lam: float = 0.5


def make_preset(name: str, lam: float = 0.5) -> Preset:
    """Build one of the four named presets.

    ``relevance_only`` is (1, 0), ``coverage_only`` is (0, 1); the oriented
    presets keep one weight at 1 and set the other to ``lam``, which must
    lie strictly inside (0, 1).  The pure presets ignore ``lam`` but still
    record it, so it must be finite for every preset.
    """
    if name not in PRESET_NAMES:
        raise ParameterError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    if not np.isfinite(lam):
        raise ParameterError(f"lambda must be finite, got {lam}")
    if name in ("relevance_oriented", "coverage_oriented") and not 0.0 < lam < 1.0:
        raise ParameterError(f"lambda must lie in (0, 1) for {name}, got {lam}")
    weights = {
        "relevance_only": (1.0, 0.0),
        "coverage_only": (0.0, 1.0),
        "relevance_oriented": (1.0, float(lam)),
        "coverage_oriented": (float(lam), 1.0),
    }[name]
    return Preset(name=name, alpha=weights[0], beta=weights[1], lam=float(lam))


def _scores_array(r) -> np.ndarray:
    arr = np.asarray(getattr(r, "scores", r), dtype=np.float64)
    if arr.ndim != 1:
        raise ParameterError(f"relevance scores must be a vector, got shape {arr.shape}")
    return arr


def _values_array(sim) -> np.ndarray:
    arr = np.asarray(getattr(sim, "values", sim), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParameterError(f"similarity matrix must be square, got shape {arr.shape}")
    return arr


class CoverageState:
    """Per-candidate best similarity to the selected set.

    ``c`` starts at the baseline (-1 everywhere, so coverage of the empty
    set is zero) and each update can only raise entries.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ParameterError(f"ground set must be non-empty, got n={n}")
        self.c = np.full(n, COVERAGE_BASELINE)
        self._order: list[int] = []
        self._chosen: set[int] = set()

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def selected(self) -> tuple[int, ...]:
        """Selected positions in selection order (1-based)."""
        return tuple(self._order)

    def __contains__(self, position: int) -> bool:
        return position in self._chosen

    def update(self, position: int, sim) -> None:
        """Fold ``position`` into the state: c[j] = max(c[j], s[j, position])."""
        values = _values_array(sim)
        if not 1 <= position <= self.n:
            raise IndexError(f"position {position} outside 1..{self.n}")
        if position in self._chosen:
            raise DuplicateSelectionError(f"position {position} already selected")
        np.maximum(self.c, values[:, position - 1], out=self.c)
        self._order.append(position)
        self._chosen.add(position)


def _single_gain(e0: int, scores, rows, c, alpha: float, beta: float, norm_n) -> float:
    # Shared by both engines and by marginal_gain: any change here must keep
    # the arithmetic identical everywhere or lazy runs stop matching plain.
    if beta != 0.0:
        cov = float(np.maximum(rows[e0] - c, 0.0).sum())
        if norm_n is not None:
            cov /= norm_n
        return alpha * float(scores[e0]) + beta * cov
    return alpha * float(scores[e0])


def marginal_gain(
    position: int,
    state: CoverageState,
    r,
    sim,
    preset: Preset,
    normalize_coverage: bool = False,
) -> float:
    """Gain of adding ``position`` on top of ``state``'s selected set.

    Equals F(S + {position}) - F(S) by construction; the coverage part is
    ``sum_j max(s[j, position] - c[j], 0)``.
    """
    scores = _scores_array(r)
    values = _values_array(sim)
    n = scores.shape[0]
    if position in state:
        raise DuplicateSelectionError(f"position {position} already selected")
    if not 1 <= position <= n:
        raise IndexError(f"position {position} outside 1..{n}")
    norm_n = float(n) if normalize_coverage else None
    return _single_gain(position - 1, scores, values.T, state.c, preset.alpha, preset.beta, norm_n)


def relevance_sum(positions, r) -> float:
    """R(S): the modular relevance total over a position set."""
    scores = _scores_array(r)
    idx = _position_index(positions, scores.shape[0])
    if idx.size == 0:
        return 0.0
    return float(scores[idx].sum())


def coverage_value(positions, sim, normalize_coverage: bool = False) -> float:
    """C(S): total facility-location coverage of a position set."""
    values = _values_array(sim)
    n = values.shape[0]
    idx = _position_index(positions, n)
    if idx.size == 0:
        return 0.0
    best = np.maximum(values[:, idx].max(axis=1), COVERAGE_BASELINE)
    cov = float((best - COVERAGE_BASELINE).sum())
    return cov / n if normalize_coverage else cov


def objective_value(
    positions,
    r,
    sim,
    preset: Preset,
    normalize_coverage: bool = False,
) -> float:
    """F(S) evaluated directly from the definition; empty sets score 0."""
    return preset.alpha * relevance_sum(positions, r) + preset.beta * coverage_value(
        positions, sim, normalize_coverage
    )


def _position_index(positions, n: int) -> np.ndarray:
    pos = sorted({int(p) for p in positions})
    if pos and (pos[0] < 1 or pos[-1] > n):
        raise IndexError(f"positions must lie in 1..{n}, got range [{pos[0]}, {pos[-1]}]")
    return np.asarray(pos, dtype=np.int64) - 1


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one greedy run.

    ``positions`` are sorted ascending (temporal order); ``gains`` stay in
    selection order and are non-increasing.  ``seconds``/``frame_indices``
    are present whenever a pool was supplied.
    """

    positions: tuple[int, ...]
    seconds: tuple[int, ...] | None
    frame_indices: tuple[int, ...] | None
    gains: tuple[float, ...]
    objective: float
    preset: Preset
    budget: int
    coverage_normalized: bool
    video_id: str | None


def select(
    r,
    sim,
    k: int,
    preset: Preset,
    pool: CandidatePool | None = None,
    *,
    normalize_coverage: bool = False,
    engine: str = "plain",
) -> SelectionResult:
    """Greedily pick ``min(k, N)`` positions maximizing F.

    Each step scores every unselected candidate by its marginal gain,
    takes the argmax (ties to the smallest position), and folds the winner
    into the coverage vector.  Results are deterministic and independent
    of the engine choice.

    Args:
        r: RelevanceScores or a finite, non-negative score vector.
        sim: SimilarityMatrix or an N x N array of finite pairwise
            similarities.  It is not checked: the ``plain`` engine's skip
            test relies on ordered comparisons, which NaN breaks.
        k: selection budget, an integer >= 1 (not a bool).
        preset: the (alpha, beta) trade-off to optimize.
        pool: optional candidate pool used to map positions to seconds and
            frame indices.
        normalize_coverage: divide the coverage term by N, taming its
            growth on large pools; recorded in the result.
        engine: ``plain`` (incremental re-scoring, the default) or ``lazy``
            (priority queue).

    Raises:
        BudgetError: ``k`` is a bool, not an integer, or ``k < 1``.
        ParameterError: a relevance score is negative or not finite.
        AlignmentError: score/similarity/pool sizes disagree.
    """
    if isinstance(k, (bool, np.bool_)) or int(k) != k or k < 1:
        raise BudgetError(f"budget must be a positive integer, got {k!r}")
    k = int(k)
    if engine not in ENGINES:
        raise ParameterError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    scores = _scores_array(r)
    values = _values_array(sim)
    n = scores.shape[0]
    if values.shape[0] != n:
        raise AlignmentError(f"{n} relevance scores but {values.shape[0]}x{values.shape[1]} similarity matrix")
    if pool is not None and pool.n != n:
        raise AlignmentError(f"pool has {pool.n} candidates but scores cover {n}")
    if not np.isfinite(scores).all():
        raise ParameterError("relevance scores must be finite")
    if float(scores.min()) < 0.0:
        raise ParameterError("relevance scores must be non-negative")

    simt = np.ascontiguousarray(values.T)
    norm_n = float(n) if normalize_coverage else None
    steps = min(k, n)
    if engine == "plain":
        order, gains, c = _run_plain(scores, values, simt, steps, preset.alpha, preset.beta, norm_n)
    else:
        order, gains, c = _run_lazy(scores, simt, steps, preset.alpha, preset.beta, norm_n)

    sel_sorted = np.array(sorted(order), dtype=np.int64)
    rel = float(scores[sel_sorted].sum())
    cov = float((c - COVERAGE_BASELINE).sum())
    if norm_n is not None:
        cov /= norm_n
    objective = preset.alpha * rel + preset.beta * cov

    positions = tuple(int(e) + 1 for e in sel_sorted)
    seconds = frame_indices = None
    if pool is not None:
        seconds = tuple(pool.seconds[p - 1] for p in positions)
        frame_indices = tuple(frame_index_of_second(pool.meta, s) for s in seconds)
    return SelectionResult(
        positions=positions,
        seconds=seconds,
        frame_indices=frame_indices,
        gains=tuple(gains),
        objective=objective,
        preset=preset,
        budget=k,
        coverage_normalized=normalize_coverage,
        video_id=pool.meta.video_id if pool is not None else None,
    )


# Rows of the (B x N) gain scratch buffer: B * N float64 values stay near
# 512 KiB, so each block's subtract, clamp and row sum run in L2 cache
# instead of streaming a full N x N buffer through memory three times.
_BLOCK_VALUES = 1 << 16


def _gain_buffer(n: int, beta: float):
    if beta == 0.0:
        return None
    return np.empty((max(1, min(n, _BLOCK_VALUES // max(n, 1))), n))


def _coverage_sums(simt, c, buf, rows=None) -> np.ndarray:
    # Row e of a block holds max(s[., e] - c, 0); its row sum is e's
    # coverage gain.  Each row is summed whole, so a row's sum is
    # bit-identical to _single_gain on the same state whichever rows are
    # summed (all of them, or the ``rows`` subset), which the test suite
    # pins down.
    count = simt.shape[0] if rows is None else rows.shape[0]
    out = np.empty(count)
    step = buf.shape[0]
    for i0 in range(0, count, step):
        i1 = min(i0 + step, count)
        block = buf[: i1 - i0]
        if rows is None:
            np.subtract(simt[i0:i1], c, out=block)
        else:
            np.take(simt, rows[i0:i1], axis=0, out=block, mode="clip")
            np.subtract(block, c, out=block)
        np.maximum(block, 0.0, out=block)
        block.sum(axis=1, out=out[i0:i1])
    return out


def _gains(scores, cov, alpha, beta, norm_n) -> np.ndarray:
    if norm_n is not None:
        cov /= norm_n
    return alpha * scores + beta * cov


def _batched_gains(scores, simt, c, alpha, beta, norm_n, buf) -> np.ndarray:
    if beta == 0.0:
        return alpha * scores
    return _gains(scores, _coverage_sums(simt, c, buf), alpha, beta, norm_n)


def _stale_rows(values, raised, c_old, chosen, buf):
    """Unchosen candidates whose gain the last pick may have changed.

    The pick raised c only at the columns ``raised`` (from ``c_old``), so
    only a gain term max(s[j, e] - c[j], 0) at such a column can change,
    and it is zero before and after when s[j, e] < c_old[j].  Equality is
    re-summed too (``>=``), so the skip never depends on the sign of a
    zero difference, and every cached sum keeps its bits.  ``values``
    must be finite: a NaN compares false and would be skipped.
    Returns None once the rows compared plus the rows to re-sum pass N:
    comparing a row of ``values`` and re-summing a gathered row each cost
    up to about one row of the contiguous full pass (0.55-0.95 of one,
    measured at N = 1000 and 2000), so past N rows the full pass is the
    cheaper update.
    """
    n = chosen.shape[0]
    hit = np.zeros(n, dtype=bool)
    # Early steps hit nearly every row, which the first few compared rows
    # already show, so the chunks start small and double up to the buffer.
    i0, size = 0, min(8, buf.shape[0])
    while i0 < raised.size:
        block = buf[: min(size, raised.size - i0)]
        # mode="clip" (the indices are in range) lets take write straight
        # into the buffer; the default mode copies through a temporary.
        np.take(values, raised[i0 : i0 + size], axis=0, out=block, mode="clip")
        hit |= np.greater_equal(block, c_old[i0 : i0 + size, None]).any(axis=0)
        if raised.size + np.count_nonzero(hit) > n:
            return None
        i0 += size
        size = min(2 * size, buf.shape[0])
    hit &= ~chosen
    return np.flatnonzero(hit)


def _run_plain(scores, values, simt, steps, alpha, beta, norm_n):
    # Exact incremental greedy: after each pick only the gains that pick
    # can change are re-summed, and every other cached gain keeps its bits.
    n = scores.shape[0]
    c = np.full(n, COVERAGE_BASELINE)
    buf = _gain_buffer(n, beta)
    chosen = np.zeros(n, dtype=bool)
    order: list[int] = []
    gains: list[float] = []
    total = _batched_gains(scores, simt, c, alpha, beta, norm_n, buf)
    for step in range(steps):
        e0 = int(np.argmax(total))
        order.append(e0)
        gains.append(float(total[e0]))
        chosen[e0] = True
        total[e0] = -np.inf
        col = simt[e0]
        if beta == 0.0 or step == steps - 1:
            np.maximum(c, col, out=c)
            continue
        raised = np.flatnonzero(col > c)
        c_old = c[raised]
        np.maximum(c, col, out=c)
        stale = _stale_rows(values, raised, c_old, chosen, buf)
        if stale is None:
            total = _batched_gains(scores, simt, c, alpha, beta, norm_n, buf)
            total[chosen] = -np.inf
        elif stale.size:
            cov = _coverage_sums(simt, c, buf, stale)
            total[stale] = _gains(scores[stale], cov, alpha, beta, norm_n)
    return order, gains, c


def _run_lazy(scores, simt, steps, alpha, beta, norm_n):
    n = scores.shape[0]
    c = np.full(n, COVERAGE_BASELINE)
    order: list[int] = []
    gains: list[float] = []

    total0 = _batched_gains(scores, simt, c, alpha, beta, norm_n, _gain_buffer(n, beta))
    bound = np.array(total0, dtype=np.float64)
    last_eval = np.zeros(n, dtype=np.int64)
    heap = [(-float(total0[e0]), e0) for e0 in range(n)]
    heapq.heapify(heap)
    chosen = np.zeros(n, dtype=bool)

    for step in range(steps):
        while True:
            neg_g, e0 = heapq.heappop(heap)
            g = -neg_g
            if chosen[e0] or g != bound[e0]:
                continue
            if last_eval[e0] == step:
                break
            g = _single_gain(e0, scores, simt, c, alpha, beta, norm_n)
            bound[e0] = g
            last_eval[e0] = step
            heapq.heappush(heap, (-g, e0))
        order.append(e0)
        gains.append(float(g))
        chosen[e0] = True
        np.maximum(c, simt[e0], out=c)
    return order, gains, c


def preset_doc(preset: Preset) -> dict:
    return {
        "name": preset.name,
        "alpha": float(preset.alpha),
        "beta": float(preset.beta),
        "lambda": float(preset.lam),
    }


def selection_result_doc(result: SelectionResult) -> dict:
    if result.seconds is None or result.frame_indices is None or result.video_id is None:
        raise ParameterError("selection result lacks a pool mapping; run select() with a pool")
    return {
        "video_id": result.video_id,
        "preset": preset_doc(result.preset),
        "budget": int(result.budget),
        "positions": [int(p) for p in result.positions],
        "seconds": [int(s) for s in result.seconds],
        "frame_indices": [int(f) for f in result.frame_indices],
        "gains": [float(g) for g in result.gains],
        "objective": float(result.objective),
        "coverage_normalized": bool(result.coverage_normalized),
    }


def write_selection_result(result: SelectionResult, path) -> None:
    write_json(path, selection_result_doc(result))


def read_selection_result(path) -> SelectionResult:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: selection result must be a JSON object")
    where = str(path)
    preset_doc = require_key(doc, "preset", dict, where)
    preset = Preset(
        name=require_key(preset_doc, "name", str, where),
        alpha=float(require_key(preset_doc, "alpha", float, where)),
        beta=float(require_key(preset_doc, "beta", float, where)),
        lam=float(require_key(preset_doc, "lambda", float, where)),
    )
    return SelectionResult(
        positions=tuple(require_key(doc, "positions", list, where)),
        seconds=tuple(require_key(doc, "seconds", list, where)),
        frame_indices=tuple(require_key(doc, "frame_indices", list, where)),
        gains=tuple(require_key(doc, "gains", list, where)),
        objective=float(require_key(doc, "objective", float, where)),
        preset=preset,
        budget=require_key(doc, "budget", int, where),
        coverage_normalized=bool(require_key(doc, "coverage_normalized", bool, where)),
        video_id=require_key(doc, "video_id", str, where),
    )
