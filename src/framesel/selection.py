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

Both engine names, ``plain`` and ``lazy``, run one lazy greedy (Minoux
1978) over a bound array.  Every unchosen candidate keeps its last
computed gain; c only rises, so under diminishing returns that value
bounds the candidate's current gain from above.  Each step takes the
argmax of these values.  If the winner's value was computed under the
current c, it is the exact argmax, ties included.  Otherwise the stale
candidates with the largest bounds are re-summed in batches that double
in size, and the argmax is taken again after each batch.  A float sum
of non-negative terms is monotone in each term, so the bounds hold in
floating point too, and every accepted gain is a whole-row sum under the
current c: selections and gains are bit-identical to re-scoring every
candidate at every step.  A step re-sums each candidate at most once, so
the worst case stays O(K * N^2).

Each gain reads one column s[., e] of the similarity matrix, so greedy
works on rows of its transpose.  A C-contiguous matrix that equals its
transpose bit for bit (every pipeline matrix: ``semantic @ semantic.T``
comes out exactly symmetric) is read in place; any other matrix is first
copied into its transpose, tile by tile.

Positions are 1-based throughout the public surface, matching embedding
row order; ties at the argmax go to the smallest position, i.e. earliest
time.  All accumulation is in float64.  One run mutates only its private
coverage state, so shared score/similarity inputs stay read-only.
"""

from __future__ import annotations

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
    row = np.array([position - 1])
    gain = _batched_gains(scores, values.T, state.c, preset.alpha, preset.beta, norm_n, np.empty((1, n)), row)
    return float(gain[0])


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

    Each step takes the unselected candidate with the largest marginal
    gain (ties to the smallest position) and folds it into the coverage
    vector.  Results are deterministic and independent of the engine name.

    Args:
        r: RelevanceScores or a finite, non-negative score vector.
        sim: SimilarityMatrix or an N x N array of finite pairwise
            similarities.  It is not checked: the stale gain bounds rely
            on ordered comparisons, which NaN breaks.  A C-contiguous
            float64 matrix that equals its transpose bit for bit is read
            in place; any other matrix is copied into its transpose.
        k: selection budget, an integer >= 1 (not a bool).
        preset: the (alpha, beta) trade-off to optimize; both weights
            finite and beta >= 0, which keeps stale gains upper bounds.
        pool: optional candidate pool used to map positions to seconds and
            frame indices.
        normalize_coverage: divide the coverage term by N, taming its
            growth on large pools; recorded in the result.
        engine: ``plain`` (the default) or ``lazy``.  Both names run the
            same lazy greedy and return the same bits.

    Raises:
        BudgetError: ``k`` is a bool, not an integer, or ``k < 1``.
        ParameterError: a relevance score is negative or not finite, or
            a preset weight is not finite or beta is negative.
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
    if not (np.isfinite(preset.alpha) and np.isfinite(preset.beta) and preset.beta >= 0.0):
        raise ParameterError(f"preset weights must be finite with beta >= 0, got ({preset.alpha}, {preset.beta})")
    if not np.isfinite(scores).all():
        raise ParameterError("relevance scores must be finite")
    if float(scores.min()) < 0.0:
        raise ParameterError("relevance scores must be non-negative")

    norm_n = float(n) if normalize_coverage else None
    simt = values if _is_symmetric(values) else _transposed(values)
    order, gains, c = _run_greedy(scores, simt, min(k, n), preset.alpha, preset.beta, norm_n)

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


# Side of the square tiles that the symmetry check compares and of the
# column bands of the transposed copy: a tile's rows stay in cache while
# its transpose is read, where a whole-matrix transpose strides across all
# of memory.
_TILE = 256

# Stale candidates re-summed by a step's first batch; each further batch
# of the same step doubles.
_FIRST_BATCH = 16


def _is_symmetric(values) -> bool:
    # Bit patterns, not float ==: -0.0 and 0.0 differ, and NaN equals
    # itself, so an in-place read gives exactly the transposed copy's bits.
    # Tile (i, j) is compared with tile (j, i) for i <= j only, so each
    # off-diagonal entry is read once; the walk stops at the first mismatch.
    if not values.flags.c_contiguous:
        return False
    bits = values.view(np.int64)
    n = bits.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            if not np.array_equal(bits[i : i + _TILE, j : j + _TILE], bits[j : j + _TILE, i : i + _TILE].T):
                return False
    return True


def _transposed(values) -> np.ndarray:
    n = values.shape[0]
    out = np.empty((n, n))
    for i in range(0, n, _TILE):
        out[:, i : i + _TILE] = values[i : i + _TILE].T
    return out


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
    # coverage gain.  Each row is summed whole, so a row's sum has the same
    # bits whichever rows are summed with it (all of them, a ``rows``
    # subset, or a single row for marginal_gain), which the test suite pins
    # down.
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


def _batched_gains(scores, simt, c, alpha, beta, norm_n, buf, rows=None) -> np.ndarray:
    if rows is not None:
        scores = scores[rows]
    if beta == 0.0:
        return alpha * scores
    cov = _coverage_sums(simt, c, buf, rows)
    if norm_n is not None:
        cov /= norm_n
    return alpha * scores + beta * cov


def _run_greedy(scores, simt, steps, alpha, beta, norm_n):
    # Lazy greedy over a bound array: ``total`` holds each candidate's last
    # computed gain (-inf once chosen), ``fresh`` marks the gains computed
    # under the current ``c``.  Every stale value bounds its candidate's gain
    # from above, so a fresh argmax is the exact argmax, ties included.
    n = scores.shape[0]
    c = np.full(n, COVERAGE_BASELINE)
    buf = _gain_buffer(n, beta)
    total = _batched_gains(scores, simt, c, alpha, beta, norm_n, buf)
    fresh = np.ones(n, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    order: list[int] = []
    gains: list[float] = []
    for _ in range(steps):
        batch = _FIRST_BATCH
        e0 = int(np.argmax(total))
        while not fresh[e0]:
            # Re-sum the stale candidates with the largest bounds; each row is
            # summed whole, so a re-summed gain has full re-scoring's bits.
            stale = np.flatnonzero(~fresh)
            if batch < stale.size:
                stale = stale[np.argpartition(total[stale], -batch)[-batch:]]
            total[stale] = _batched_gains(scores, simt, c, alpha, beta, norm_n, buf, stale)
            fresh[stale] = True
            batch *= 2
            e0 = int(np.argmax(total))
        order.append(e0)
        gains.append(float(total[e0]))
        chosen[e0] = True
        total[e0] = -np.inf
        np.maximum(c, simt[e0], out=c)
        if beta != 0.0:
            np.copyto(fresh, chosen)
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
