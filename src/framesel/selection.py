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
the worst case stays O(K * N^2).  The loop yields one record per pick, and
``select`` folds the records into the result, which keeps the pick order.

Each gain reads one row s[e, .], so greedy reads a C-contiguous float64
matrix in place and copies any other layout once.

``objective_terms`` evaluates R, C and F, and ``marginal_gain`` one gain,
for a set S given as 1-based positions.  They, ``select`` and the exact
search of ``oracle`` check an instance by one rule, ``_instance``, and
refuse a gain or an F that overflows.  They hold no state: c is rebuilt
from S, and a gain's row is summed as greedy sums it, so greedy's gains
are the values ``marginal_gain`` returns unless coverage is normalized.
``objective_terms`` and ``select`` form R, C and F of a set from its c in
one helper, ``_terms``, so a greedy result's objective has the bits of
``objective_value`` of its positions.

Positions are 1-based throughout the public surface, matching embedding
row order, and must be integers (not bools); ties at the argmax go to the
smallest position, i.e. earliest time.  All accumulation is in float64.
One run writes only its private coverage vector, so shared
score/similarity inputs stay read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ParameterError
from .fileio import in_file, read_json, require_key, write_json
from .pool import CandidatePool, _count, _finite, _floats, _integral, _position_index, frame_index_of_second

COVERAGE_BASELINE = -1.0

DEFAULT_LAMBDA = 0.5

# Preset name -> (alpha, beta); a weight of None takes lambda.  The
# order, from relevance to coverage, is the routing argmax's tie order.
PRESET_WEIGHTS = {
    "relevance_only": (1.0, 0.0),
    "relevance_oriented": (1.0, None),
    "coverage_oriented": (None, 1.0),
    "coverage_only": (0.0, 1.0),
}

PRESET_ORDER = tuple(PRESET_WEIGHTS)
# The CLI's choice order: the pure presets, then the lambda-weighted ones.
PRESET_NAMES = tuple(sorted(PRESET_ORDER, key=lambda name: None in PRESET_WEIGHTS[name]))

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

    Raises:
        ParameterError: ``name`` is not in ``PRESET_NAMES``, ``lam`` is not
            finite, or a preset that takes ``lam`` gets one outside (0, 1).
    """
    if name not in PRESET_NAMES:
        raise ParameterError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    if not _finite(lam):
        raise ParameterError(f"lambda must be finite, got {lam!r}")
    if None in PRESET_WEIGHTS[name] and not 0.0 < lam < 1.0:
        raise ParameterError(f"lambda must lie in (0, 1) for {name}, got {lam}")
    alpha, beta = (float(lam) if w is None else w for w in PRESET_WEIGHTS[name])
    return Preset(name=name, alpha=alpha, beta=beta, lam=float(lam))


def _instance(r, sim, preset: Preset, *, sim_optional: bool = False):
    # (scores, values) of a valid instance: the rule every entry point
    # applies.  Only greedy (``sim_optional``) takes ``sim=None``, where
    # beta == 0 keeps it from reading the matrix; ``values`` is then None.
    scores = _floats(r, "relevance scores must be an array of numbers", overflow="relevance scores must be finite numbers")
    if scores.ndim != 1:
        raise ParameterError(f"relevance scores must be a vector, got shape {scores.shape}")
    values = None if sim is None and sim_optional else _floats(sim, "similarity matrix must be an array of numbers")
    if values is not None:
        if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] == 0:
            raise ParameterError(f"similarity matrix must be square and non-empty, got shape {values.shape}")
        if values.shape[0] != scores.shape[0]:
            raise AlignmentError(f"{scores.shape[0]} relevance scores but {values.shape[0]}x{values.shape[1]} similarity matrix")
    elif preset.beta != 0.0:
        raise ParameterError(f"sim may be None only when beta == 0, got beta {preset.beta}")
    if not (_finite(preset.alpha) and _finite(preset.beta) and preset.beta >= 0.0):
        raise ParameterError(f"preset weights must be finite with beta >= 0, got ({preset.alpha}, {preset.beta})")
    if scores.size == 0:
        raise ParameterError("relevance scores must be non-empty")
    if not np.isfinite(scores).all():
        raise ParameterError("relevance scores must be finite")
    if float(scores.min()) < 0.0:
        raise ParameterError("relevance scores must be non-negative")
    return scores, values


def _refuse_overflow(preset: Preset, *values: float) -> None:
    # Weights near the float range or a NaN/inf similarity entry (never checked
    # up front) make a gain or F non-finite: argmax cannot order it, no file holds it.
    if not all(map(_finite, values)):
        raise ParameterError(f"preset weights ({preset.alpha}, {preset.beta}) or a NaN/inf similarity entry overflow a gain or F")


def _coverage_vector(values, idx) -> np.ndarray:
    # c[j] = max(-1, max_{i in S} s[i, j]): j's best similarity to S.
    return values[idx].max(axis=0, initial=COVERAGE_BASELINE)


def _terms(scores, idx, c, preset: Preset, normalize_coverage: bool) -> tuple[float, float, float]:
    # (R, C, F) of the set ``idx`` whose coverage vector is ``c``: the one
    # place F = alpha * R + beta * C of a set is formed.
    with np.errstate(over="ignore", invalid="ignore"):
        rel = float(scores[idx].sum())
        cov = float((c - COVERAGE_BASELINE).sum())
        if normalize_coverage:
            cov /= c.shape[0]
        value = preset.alpha * rel + preset.beta * cov
    _refuse_overflow(preset, value)
    return rel, cov, value


def marginal_gain(position: int, selected, r, sim, preset: Preset) -> float:
    """Gain of adding ``position`` to the 1-based ``selected`` positions.

    Equals F(S + {position}) - F(S) by construction; the coverage part is
    ``sum_j max(s[position, j] - c[j], 0)`` with c the coverage vector of
    S, never divided by N.  The row is summed as greedy sums it, so this
    returns greedy's gains unless ``select`` normalizes coverage.

    Raises:
        ParameterError: ``position`` is already selected; the other
            errors are those of ``objective_terms``.
    """
    scores, values = _instance(r, sim, preset)
    n = scores.shape[0]
    e = _position_index([position], n)
    idx = _position_index(selected, n)
    if e[0] in idx:
        raise ParameterError(f"position {position} already selected")
    return _gain(scores, values, e, idx, preset)


def _gain(scores, values, e, idx, preset: Preset) -> float:
    # Gain of the index in ``e`` over the set ``idx`` of a valid instance.
    c = _coverage_vector(values, idx)
    with np.errstate(over="ignore", invalid="ignore"):
        gain = float(_batched_gains(scores, values, c, preset, False, np.empty((1, c.shape[0])), e)[0])
    _refuse_overflow(preset, gain)
    return gain


def objective_terms(
    positions,
    r,
    sim,
    preset: Preset,
    normalize_coverage: bool = False,
) -> tuple[float, float, float]:
    """(R(S), C(S), F(S)) evaluated directly from the definitions; empty sets score 0.

    Raises:
        ParameterError: the instance breaks ``select``'s rule (``sim`` is
            required), a position is not an integer, or F overflows.
        AlignmentError: score and similarity sizes disagree.
        IndexError: a position lies outside 1..N.
    """
    scores, values = _instance(r, sim, preset)
    idx = _position_index(positions, scores.shape[0])
    return _terms(scores, idx, _coverage_vector(values, idx), preset, normalize_coverage)


def objective_value(
    positions,
    r,
    sim,
    preset: Preset,
    normalize_coverage: bool = False,
) -> float:
    """F(S) of ``objective_terms``."""
    return objective_terms(positions, r, sim, preset, normalize_coverage)[2]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one greedy run.

    ``positions`` are sorted ascending (temporal order); ``gains`` stay in
    selection order and are non-increasing.  ``order`` holds the positions
    in the order greedy picked them, so ``gains[i]`` is the gain of
    ``order[i]`` over ``order[:i]``.  A result that ``select`` builds carries
    it; it takes no part in equality or in the result file, so a result
    read back has None.  ``seconds``/``frame_indices`` are present whenever
    a pool was supplied.

    Raises:
        ParameterError: positions not strictly ascending integers >= 1;
            ``order`` neither None nor each position exactly once;
            ``seconds``, ``frame_indices`` and ``video_id`` neither all None
            nor one entry per position; not one finite gain per position; a
            non-finite objective or preset number; ``budget`` not an
            integer >= 1, or fewer than the positions.
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
    order: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = len(self.positions)
        if not all(map(_integral, self.positions)) or any(a >= b for a, b in zip([0, *self.positions], self.positions)):
            raise ParameterError("positions must be strictly ascending integers >= 1")
        if self.order is not None and sorted(self.order) != list(self.positions):
            raise ParameterError("order must be None or hold each position exactly once")
        present = [m is not None for m in (self.seconds, self.frame_indices, self.video_id)]
        if any(present) and not (all(present) and len(self.seconds) == len(self.frame_indices) == n):
            raise ParameterError("seconds, frame_indices and video_id must all be None or hold one entry per position")
        values = (*self.gains, self.objective, self.preset.alpha, self.preset.beta, self.preset.lam)
        if len(self.gains) != n or not all(map(_finite, values)):
            raise ParameterError("a result needs one finite gain per position, a finite objective and finite preset numbers")
        if n > _count("budget", self.budget):
            raise ParameterError(f"{n} positions exceed the budget {self.budget}")


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
        ParameterError: ``k`` is a bool, not a finite integer, or
            ``k < 1``; the instance breaks the rule every evaluator
            shares (``r`` a non-empty vector of finite, non-negative
            scores; finite weights, beta >= 0, alpha < 0 allowed; ``sim``
            a non-empty square matrix, None only when beta == 0), the
            engine is unknown, or a gain or the objective overflows.
        AlignmentError: score/similarity/pool sizes disagree.
    """
    k = _count("budget", k)
    if engine not in ENGINES:
        raise ParameterError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    scores, values = _instance(r, sim, preset, sim_optional=True)
    n = scores.shape[0]
    if pool is not None and pool.n != n:
        raise AlignmentError(f"pool has {pool.n} candidates but scores cover {n}")

    # Only the coverage term reads the matrix, so beta == 0 runs without it.
    values = np.ascontiguousarray(values) if preset.beta != 0.0 else None
    c = np.full(n, COVERAGE_BASELINE)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = list(_greedy_steps(scores, values, min(k, n), preset, normalize_coverage, c))
    gains = [step.gain for step in steps]
    _refuse_overflow(preset, *gains)
    order = tuple(step.index + 1 for step in steps)
    positions = tuple(sorted(order))
    sel_sorted = np.array(positions, dtype=np.int64) - 1
    objective = _terms(scores, sel_sorted, c, preset, normalize_coverage)[2]

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
        order=order,
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


def _batched_gains(scores, values, c, preset: Preset, normalize_coverage: bool, buf, rows) -> np.ndarray:
    scores = scores[rows]
    if preset.beta == 0.0:
        return preset.alpha * scores
    cov = _coverage_sums(values, c, buf, rows)
    if normalize_coverage:
        cov /= c.shape[0]
    return preset.alpha * scores + preset.beta * cov


@dataclass(frozen=True, eq=False)
class _Step:
    # One greedy pick: its 0-based index and gain, the rows ``_coverage_sums``
    # summed and the calls it made for this step (the first pass counts
    # toward the first step), and a read-only view of ``total`` before the
    # pick is marked, valid until the loop resumes.
    index: int
    gain: float
    rows: int
    calls: int
    total: np.ndarray


def _greedy_steps(scores, values, steps, preset: Preset, normalize_coverage: bool, c):
    # Lazy greedy over a bound array: ``total`` holds each candidate's last
    # computed gain (-inf once chosen), ``fresh`` marks the gains computed
    # under the current ``c``.  Every stale value bounds its candidate's gain
    # from above, so a fresh argmax is the exact argmax, ties included.
    # Yields one ``_Step`` per pick and, once resumed, folds the pick into
    # the caller's ``c``.  With beta == 0 (``values`` is then None) ``c``
    # stays at the baseline, so the coverage term is 0.0; beta * 0.0 has the
    # bits of beta * C for the finite C >= 0 of any matrix, so the objective
    # keeps its bits.
    n = scores.shape[0]
    buf = None if values is None else np.empty((max(1, min(n, _BLOCK_VALUES // n)), n))
    total = _batched_gains(scores, values, c, preset, normalize_coverage, buf, np.arange(n))
    view = total.view()
    view.flags.writeable = False
    fresh = np.ones(n, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    rows, calls = (0, 0) if values is None else (n, 1)
    for _ in range(steps):
        batch = _FIRST_BATCH
        e0 = int(np.argmax(total))
        while not fresh[e0]:
            # Re-sum the stale candidates with the largest bounds.
            stale = np.flatnonzero(~fresh)
            if batch < stale.size:
                stale = stale[np.argpartition(total[stale], -batch)[-batch:]]
            total[stale] = _batched_gains(scores, values, c, preset, normalize_coverage, buf, stale)
            fresh[stale] = True
            rows += stale.size
            calls += 1
            batch *= 2
            e0 = int(np.argmax(total))
        yield _Step(e0, float(total[e0]), rows, calls, view)
        rows = calls = 0
        chosen[e0] = True
        total[e0] = -np.inf
        if values is not None:
            np.maximum(c, values[e0], out=c)
            np.copyto(fresh, chosen)


def preset_doc(preset: Preset) -> dict:
    return {
        "name": preset.name,
        "alpha": float(preset.alpha),
        "beta": float(preset.beta),
        "lambda": float(preset.lam),
    }


def selection_result_doc(result: SelectionResult) -> dict:
    if result.video_id is None:
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
    """Load a selection result: the JSON kinds are checked here, the rest by ``SelectionResult``.

    The preset is kept as read, so a custom one loads too.
    """
    doc = read_json(path)
    where = str(path)
    fields = require_key(doc, "preset", dict, where)
    preset = Preset(
        name=require_key(fields, "name", str, where),
        alpha=require_key(fields, "alpha", float, where),
        beta=require_key(fields, "beta", float, where),
        lam=require_key(fields, "lambda", float, where),
    )
    return in_file(
        where,
        SelectionResult,
        positions=tuple(require_key(doc, "positions", list, where, of=int)),
        seconds=tuple(require_key(doc, "seconds", list, where, of=int)),
        frame_indices=tuple(require_key(doc, "frame_indices", list, where, of=int)),
        gains=tuple(require_key(doc, "gains", list, where, of=float)),
        objective=require_key(doc, "objective", float, where),
        preset=preset,
        budget=require_key(doc, "budget", int, where),
        coverage_normalized=bool(require_key(doc, "coverage_normalized", bool, where)),
        video_id=require_key(doc, "video_id", str, where),
    )
