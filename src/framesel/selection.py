"""Greedy budgeted frame selection.

The objective over a position set S is

    F(S) = alpha * R(S) + beta * C(S)

where R(S) sums the per-candidate relevance scores (modular) and C(S) is a
facility-location coverage term: every candidate j is served by the most
similar selected candidate, floored at a baseline of -1 so that C({}) = 0,

    C(S) = sum_j ( max(-1, max_{i in S} s[i, j]) - (-1) ).

Row i of the similarity matrix is candidate i: s[i, j] is how well i
covers j.  Every pipeline matrix is symmetric, so the reading only
matters for a hand-built asymmetric one.

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

Each gain reads one row s[e, .], so greedy reads a C-contiguous float64
matrix in place and copies any other layout once.

``objective_value`` and ``marginal_gain`` evaluate F and one gain for a
set S given as 1-based positions.  They hold no state: c is rebuilt from
S, and a gain's row is summed as greedy sums it, so greedy's gains are the
values ``marginal_gain`` returns.

Positions are 1-based throughout the public surface, matching embedding
row order, and must be integers (not bools); ties at the argmax go to the
smallest position, i.e. earliest time.  All accumulation is in float64.
One run writes only its private coverage vector, so shared
score/similarity inputs stay read-only.
"""

from __future__ import annotations

import numbers
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

DEFAULT_LAMBDA = 0.5

# Preset name -> (alpha, beta); a weight of None takes lambda.
PRESET_WEIGHTS = {
    "relevance_only": (1.0, 0.0),
    "coverage_only": (0.0, 1.0),
    "relevance_oriented": (1.0, None),
    "coverage_oriented": (None, 1.0),
}

PRESET_NAMES = tuple(PRESET_WEIGHTS)

ENGINES = ("plain", "lazy")


@dataclass(frozen=True)
class Preset:
    """A named (alpha, beta) trade-off between relevance and coverage."""

    name: str
    alpha: float
    beta: float
    lam: float = DEFAULT_LAMBDA


def make_preset(name: str, lam: float = DEFAULT_LAMBDA) -> Preset:
    """Build one of the presets of ``PRESET_WEIGHTS``.

    A weight of None there takes ``lam``, which must then lie strictly
    inside (0, 1).  The pure presets ignore ``lam`` but still record it,
    so it must be finite for every preset.
    """
    if name not in PRESET_NAMES:
        raise ParameterError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    if not np.isfinite(lam):
        raise ParameterError(f"lambda must be finite, got {lam}")
    if None in PRESET_WEIGHTS[name] and not 0.0 < lam < 1.0:
        raise ParameterError(f"lambda must lie in (0, 1) for {name}, got {lam}")
    alpha, beta = (float(lam) if w is None else w for w in PRESET_WEIGHTS[name])
    return Preset(name=name, alpha=alpha, beta=beta, lam=float(lam))


def _scores_array(r) -> np.ndarray:
    arr = np.asarray(r, dtype=np.float64)
    if arr.ndim != 1:
        raise ParameterError(f"relevance scores must be a vector, got shape {arr.shape}")
    return arr


def _values_array(sim) -> np.ndarray:
    arr = np.asarray(sim, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ParameterError(f"similarity matrix must be square and non-empty, got shape {arr.shape}")
    return arr


def _aligned(r, sim) -> tuple[np.ndarray, np.ndarray]:
    scores = _scores_array(r)
    values = _values_array(sim)
    if values.shape[0] != scores.shape[0]:
        raise AlignmentError(f"{scores.shape[0]} relevance scores but {values.shape[0]}x{values.shape[1]} similarity matrix")
    return scores, values


def _integral(x) -> bool:
    # Non-numbers go first, then the range test: int() raises on NaN and on
    # an infinity.
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and -np.inf < x < np.inf and int(x) == x


def _position_index(positions, n: int) -> np.ndarray:
    pos = list(positions)
    bad = [p for p in pos if not _integral(p)]
    if bad:
        raise ParameterError(f"positions must be integers, got {bad[0]!r}")
    pos = sorted({int(p) for p in pos})
    if pos and (pos[0] < 1 or pos[-1] > n):
        raise IndexError(f"positions must lie in 1..{n}, got range [{pos[0]}, {pos[-1]}]")
    return np.asarray(pos, dtype=np.int64) - 1


def _coverage_vector(values, idx) -> np.ndarray:
    # c[j] = max(-1, max_{i in S} s[i, j]): j's best similarity to S.
    if idx.size == 0:
        return np.full(values.shape[0], COVERAGE_BASELINE)
    return np.maximum(values[idx].max(axis=0), COVERAGE_BASELINE)


def _coverage_total(c, normalize_coverage: bool) -> float:
    cov = float((c - COVERAGE_BASELINE).sum())
    return cov / c.shape[0] if normalize_coverage else cov


def marginal_gain(position: int, selected, r, sim, preset: Preset) -> float:
    """Gain of adding ``position`` to the 1-based ``selected`` positions.

    Equals F(S + {position}) - F(S) by construction; the coverage part is
    ``sum_j max(s[position, j] - c[j], 0)`` with c the coverage vector of
    S.  The row is summed exactly as greedy sums it, so greedy's gains
    are the values this returns.
    """
    scores, values = _aligned(r, sim)
    n = scores.shape[0]
    e = _position_index([position], n)
    idx = _position_index(selected, n)
    if e[0] in idx:
        raise DuplicateSelectionError(f"position {position} already selected")
    c = _coverage_vector(values, idx)
    gain = _batched_gains(scores, values, c, preset.alpha, preset.beta, None, np.empty((1, n)), e)
    return float(gain[0])


def relevance_sum(positions, r) -> float:
    """R(S): the modular relevance total over a position set."""
    scores = _scores_array(r)
    return float(scores[_position_index(positions, scores.shape[0])].sum())


def coverage_value(positions, sim, normalize_coverage: bool = False) -> float:
    """C(S): total facility-location coverage of a position set."""
    values = _values_array(sim)
    idx = _position_index(positions, values.shape[0])
    return _coverage_total(_coverage_vector(values, idx), normalize_coverage)


def objective_value(
    positions,
    r,
    sim,
    preset: Preset,
    normalize_coverage: bool = False,
) -> float:
    """F(S) evaluated directly from the definition; empty sets score 0."""
    scores, values = _aligned(r, sim)
    idx = _position_index(positions, scores.shape[0])
    cov = _coverage_total(_coverage_vector(values, idx), normalize_coverage)
    return preset.alpha * float(scores[idx].sum()) + preset.beta * cov


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
        r: finite, non-negative relevance scores, one per candidate.
        sim: N x N array of finite pairwise similarities; row i is
            candidate i, so entry [i, j] is how well i covers j.  It is
            not checked: the stale gain bounds rely on ordered
            comparisons, which NaN breaks.  A C-contiguous float64
            matrix is read in place; any other layout is copied once.
            A preset with beta == 0 never reads it, so it may be None
            there; the result's bits are the same as with any matrix.
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
        BudgetError: ``k`` is a bool, not a finite integer, or ``k < 1``.
        ParameterError: a relevance score is negative or not finite, a
            preset weight is not finite or beta is negative, or ``sim``
            is None and beta != 0.
        AlignmentError: score/similarity/pool sizes disagree.
    """
    if not _integral(k) or k < 1:
        raise BudgetError(f"budget must be a positive integer, got {k!r}")
    k = int(k)
    if engine not in ENGINES:
        raise ParameterError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    if sim is not None:
        scores, values = _aligned(r, sim)
    elif preset.beta == 0.0:
        scores, values = _scores_array(r), None
    else:
        raise ParameterError(f"sim may be None only when beta == 0, got beta {preset.beta}")
    n = scores.shape[0]
    if pool is not None and pool.n != n:
        raise AlignmentError(f"pool has {pool.n} candidates but scores cover {n}")
    if not (np.isfinite(preset.alpha) and np.isfinite(preset.beta) and preset.beta >= 0.0):
        raise ParameterError(f"preset weights must be finite with beta >= 0, got ({preset.alpha}, {preset.beta})")
    if not np.isfinite(scores).all():
        raise ParameterError("relevance scores must be finite")
    if float(scores.min()) < 0.0:
        raise ParameterError("relevance scores must be non-negative")

    norm_n = float(n) if normalize_coverage else None
    # Only the coverage term reads the matrix, so beta == 0 runs without it.
    values = np.ascontiguousarray(values) if preset.beta != 0.0 else None
    order, gains, c = _run_greedy(scores, values, min(k, n), preset.alpha, preset.beta, norm_n)

    sel_sorted = np.array(sorted(order), dtype=np.int64)
    rel = float(scores[sel_sorted].sum())
    objective = preset.alpha * rel + preset.beta * _coverage_total(c, normalize_coverage)

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


# Stale candidates re-summed by a step's first batch; each further batch
# of the same step doubles.
_FIRST_BATCH = 16


# Rows of the (B x N) gain scratch buffer: B * N float64 values stay near
# 512 KiB, so each block's subtract, clamp and row sum run in L2 cache
# instead of streaming a full N x N buffer through memory three times.
_BLOCK_VALUES = 1 << 16


def _coverage_sums(values, c, buf, rows) -> np.ndarray:
    # Row e of a block holds max(s[e, .] - c, 0); its row sum is e's
    # coverage gain.  Each row is summed whole, so its sum has the same bits
    # whichever rows share the call, which the greedy replay test pins down.
    out = np.empty(rows.shape[0])
    step = buf.shape[0]
    for i0 in range(0, rows.shape[0], step):
        i1 = min(i0 + step, rows.shape[0])
        block = buf[: i1 - i0]
        np.take(values, rows[i0:i1], axis=0, out=block, mode="clip")
        np.subtract(block, c, out=block)
        np.maximum(block, 0.0, out=block)
        block.sum(axis=1, out=out[i0:i1])
    return out


def _batched_gains(scores, values, c, alpha, beta, norm_n, buf, rows) -> np.ndarray:
    scores = scores[rows]
    if beta == 0.0:
        return alpha * scores
    cov = _coverage_sums(values, c, buf, rows)
    if norm_n is not None:
        cov /= norm_n
    return alpha * scores + beta * cov


def _run_greedy(scores, values, steps, alpha, beta, norm_n):
    # Lazy greedy over a bound array: ``total`` holds each candidate's last
    # computed gain (-inf once chosen), ``fresh`` marks the gains computed
    # under the current ``c``.  Every stale value bounds its candidate's gain
    # from above, so a fresh argmax is the exact argmax, ties included.
    # With beta == 0 (``values`` is then None) ``c`` stays at the baseline,
    # so the coverage term is 0.0; beta * 0.0 has the bits of beta * C for
    # the finite C >= 0 of any matrix, so the objective keeps its bits.
    n = scores.shape[0]
    c = np.full(n, COVERAGE_BASELINE)
    buf = None if values is None else np.empty((max(1, min(n, _BLOCK_VALUES // n)), n))
    total = _batched_gains(scores, values, c, alpha, beta, norm_n, buf, np.arange(n))
    fresh = np.ones(n, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    order: list[int] = []
    gains: list[float] = []
    for _ in range(steps):
        batch = _FIRST_BATCH
        e0 = int(np.argmax(total))
        while not fresh[e0]:
            # Re-sum the stale candidates with the largest bounds.
            stale = np.flatnonzero(~fresh)
            if batch < stale.size:
                stale = stale[np.argpartition(total[stale], -batch)[-batch:]]
            total[stale] = _batched_gains(scores, values, c, alpha, beta, norm_n, buf, stale)
            fresh[stale] = True
            batch *= 2
            e0 = int(np.argmax(total))
        order.append(e0)
        gains.append(float(total[e0]))
        chosen[e0] = True
        total[e0] = -np.inf
        if beta != 0.0:
            np.maximum(c, values[e0], out=c)
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
    """Load a selection result whose lists agree with its positions.

    Positions are strictly ascending integers >= 1; ``seconds`` and
    ``frame_indices`` hold one integer, and ``gains`` one finite number,
    per position.  The preset is kept as read, so a custom one loads too.
    """
    doc = read_json(path)
    where = str(path)
    preset_doc = require_key(doc, "preset", dict, where)
    preset = Preset(
        name=require_key(preset_doc, "name", str, where),
        alpha=require_key(preset_doc, "alpha", float, where),
        beta=require_key(preset_doc, "beta", float, where),
        lam=require_key(preset_doc, "lambda", float, where),
    )
    positions = require_key(doc, "positions", list, where, of=int)
    seconds = require_key(doc, "seconds", list, where, of=int)
    frame_indices = require_key(doc, "frame_indices", list, where, of=int)
    gains = require_key(doc, "gains", list, where, of=float)
    if any(a >= b for a, b in zip([0, *positions], positions)):
        raise FormatError(f"{where}: positions must be strictly ascending integers >= 1")
    for key, values in (("seconds", seconds), ("frame_indices", frame_indices), ("gains", gains)):
        if len(values) != len(positions):
            raise FormatError(f"{where}: {key} must hold one entry per position")
    return SelectionResult(
        positions=tuple(positions),
        seconds=tuple(seconds),
        frame_indices=tuple(frame_indices),
        gains=tuple(gains),
        objective=require_key(doc, "objective", float, where),
        preset=preset,
        budget=require_key(doc, "budget", int, where),
        coverage_normalized=bool(require_key(doc, "coverage_normalized", bool, where)),
        video_id=require_key(doc, "video_id", str, where),
    )
