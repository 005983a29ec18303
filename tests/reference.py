"""Independent pure-Python reference implementations.

Everything here deliberately avoids the library's own code paths, and
all but ``ref_branch_and_bound`` avoid numpy too: plain loops, plain
floats, bitmask enumeration.  Tests compare library output against these
to catch shared-bug coupling.
"""

from __future__ import annotations

import math

import numpy as np

BASELINE = -1.0


def ref_objective(positions, scores, values, alpha, beta, normalize=False):
    """Direct evaluation of alpha * R(S) + beta * C(S) from the definitions."""
    n = len(scores)
    sel = sorted(set(positions))
    rel = sum(scores[p - 1] for p in sel)
    cov = 0.0
    for j in range(n):
        best = BASELINE
        for p in sel:
            if values[p - 1][j] > best:
                best = values[p - 1][j]
        cov += best - BASELINE
    if normalize:
        cov /= n
    return alpha * rel + beta * cov


def ref_brute_force(scores, values, k, alpha, beta, normalize=False):
    """Bitmask enumeration over all subsets of size <= k.

    Returns (best value, lexicographically smallest best subset).
    """
    n = len(scores)
    best_value = 0.0
    best_set = ()
    for mask in range(1 << n):
        if mask.bit_count() > k:
            continue
        subset = tuple(i + 1 for i in range(n) if mask >> i & 1)
        value = ref_objective(subset, scores, values, alpha, beta, normalize)
        if value > best_value or (value == best_value and subset < best_set):
            best_value = value
            best_set = subset
    return best_value, best_set


def ref_branch_and_bound(scores, values, k, alpha, beta, incumbent=()):
    """Exact maximum of alpha * R(S) + beta * C(S) over |S| <= k, past brute force.

    Depth first: branch on the allowed candidate with the largest gain
    (take it, or drop it for good), and prune a node whose F(S) plus its
    k_left largest clamped gains, a bound on every completion since F is
    submodular, cannot beat the best set found.  The search starts from
    ``incumbent``, 1-based positions (e.g. greedy's).  Unlike
    ``ref_brute_force`` it keeps no tie rule.  Returns (best value, sorted
    best subset), the value evaluated afresh by ``ref_objective``'s rule.
    """
    scores = np.asarray(scores, dtype=float)
    values = np.asarray(values, dtype=float)

    def value(chosen):
        cover = values[list(chosen)].max(axis=0) if chosen else np.full(len(scores), BASELINE)
        return alpha * scores[list(chosen)].sum() + beta * (np.maximum(cover, BASELINE) - BASELINE).sum()

    best_value, best_set = value([p - 1 for p in incumbent]), tuple(p - 1 for p in incumbent)

    def search(chosen, cover, allowed, left, f):
        nonlocal best_value, best_set
        if f > best_value:
            best_value, best_set = f, chosen
        if not left:
            return
        gains = np.maximum(alpha * scores[allowed] + beta * np.maximum(values[allowed] - cover, 0.0).sum(axis=1), 0.0)
        order = np.argsort(-gains, kind="stable")
        # Dropping a candidate leaves the others' gains as they are, so the
        # drop branches walk ``order``: the i-th takes order[i] and drops
        # every candidate before it for good.
        for i, e in enumerate(allowed[order]):
            if f + gains[order[i : i + left]].sum() <= best_value:
                return
            search(chosen + (int(e),), np.maximum(cover, values[e]), allowed[order[i + 1 :]], left - 1, f + gains[order[i]])

    search((), np.full(len(scores), BASELINE), np.arange(len(scores)), k, 0.0)
    subset = tuple(sorted(best_set))
    return value(subset), tuple(p + 1 for p in subset)


def ref_greedy(scores, values, k, alpha, beta, normalize=False):
    """Naive greedy by full objective recomputation.

    Returns (sorted positions, per-step gains, min top-2 gain gap).  The
    gap lets callers skip cross-implementation position comparison when a
    step was decided by less than float noise.
    """
    n = len(scores)
    chosen: list[int] = []
    gains: list[float] = []
    min_gap = math.inf
    for _ in range(min(k, n)):
        base = ref_objective(chosen, scores, values, alpha, beta, normalize)
        best_p = None
        best_g = -math.inf
        second_g = -math.inf
        for p in range(1, n + 1):
            if p in chosen:
                continue
            g = ref_objective(chosen + [p], scores, values, alpha, beta, normalize) - base
            if g > best_g:
                second_g = best_g
                best_p, best_g = p, g
            elif g > second_g:
                second_g = g
        if second_g > -math.inf:
            min_gap = min(min_gap, best_g - second_g)
        chosen.append(best_p)
        gains.append(best_g)
    return tuple(sorted(chosen)), tuple(gains), min_gap


def ref_topk(scores, k):
    """Relevance-only expected selection: top-k scores, ties to the smallest position."""
    order = sorted(range(1, len(scores) + 1), key=lambda p: (-scores[p - 1], p))
    return tuple(sorted(order[: min(k, len(scores))]))


def ref_even_spacing(duration, cap):
    """The truncated float64 even-spacing rule (Python floats are IEEE-754 doubles)."""
    return [math.trunc(i * (duration - 1) / (cap - 1)) for i in range(cap)]


def ref_frame_index(fps, total_frames, second):
    return min(max(math.floor(second * fps), 0), total_frames - 1)


def ref_zscore_scores(cosines):
    """mean/population-std z-score, ReLU, then divide by the positive max."""
    n = len(cosines)
    mean = sum(cosines) / n
    std = math.sqrt(sum((c - mean) ** 2 for c in cosines) / n)
    if std == 0.0:
        return [0.0] * n
    relu = [max((c - mean) / std, 0.0) for c in cosines]
    peak = max(relu)
    if peak <= 0.0:
        return [0.0] * n
    return [v / peak for v in relu]


def ref_softmax(logits):
    peak = max(logits)
    exps = [math.exp(v - peak) for v in logits]
    total = sum(exps)
    return [v / total for v in exps]


def ref_uniform_positions(n, k):
    if k >= n:
        return tuple(range(1, n + 1))
    if k == 1:
        return (1,)
    return tuple(math.trunc(i * (n - 1) / (k - 1)) + 1 for i in range(k))
