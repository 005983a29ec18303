"""
Greedy selection under the four presets
=======================================

One synthetic 60-second video, three visual scenes, and a query that
only the middle scene answers. Watching which frames each preset picks
makes the relevance/coverage trade-off concrete.
"""

import numpy as np

import framesel as fs

rng = np.random.default_rng(42)
n = 60

# Scene structure: seconds 0-19 are one location, 20-39 another,
# 40-59 a third. Frames inside a scene look nearly identical.
anchors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
semantic = np.repeat(anchors, 20, axis=0) + rng.normal(scale=0.05, size=(n, 3))
semantic /= np.linalg.norm(semantic, axis=1, keepdims=True)
values = semantic @ semantic.T

# Query relevance peaks sharply around second 30.
seconds = np.arange(n)
scores = np.exp(-0.5 * ((seconds - 30.0) / 4.0) ** 2)

K = 6


def show(name, result):
    marks = ["." for _ in range(n)]
    for p in result.positions:
        marks[p - 1] = "#"
    print(f"{name:20s} |{''.join(marks)}|  F = {result.objective:7.3f}")


print("picked frames over the 60-second timeline (# = selected)\n")
print(f"{'':20s} |{'scene A':<20s}{'scene B':<20s}{'scene C':<20s}|")
for name in fs.PRESET_NAMES:
    preset = fs.make_preset(name)
    show(name, fs.select(scores, values, K, preset))

# relevance_only piles every pick onto the relevance bump; coverage_only
# spreads across the scenes and ignores the query; the oriented presets
# do some of each. The mixing weight is adjustable:
print("\ncoverage_oriented at different lambda (relevance weight):")
for lam in (0.1, 0.5, 0.9):
    preset = fs.make_preset("coverage_oriented", lam)
    result = fs.select(scores, values, K, preset)
    print(f"  lambda={lam}: positions {result.positions}")

# Duplicate suppression lives in the coverage term. Make position 32 an
# exact semantic copy of position 31: once one twin is in, the other
# adds zero coverage, so coverage_only never takes it.
values_dup = values.copy()
values_dup[:, 31] = values_dup[:, 30]
values_dup[31, :] = values_dup[30, :]
scores_dup = scores.copy()
scores_dup[31] = scores_dup[30]

picked = fs.select(scores_dup, values_dup, K, fs.make_preset("coverage_only")).positions
print(f"\ncoverage_only with an exact duplicate pair (31, 32): picked {picked}")
print("selected both copies?", {31, 32} <= set(picked))

print("duplicate's marginal coverage gain after its twin is in:",
      fs.marginal_gain(32, [31], scores_dup, values_dup, fs.make_preset("coverage_only")))

# Relevance is modular, so it has no such memory: under a mixed preset a
# duplicate can still pay its way through the relevance term alone.
picked = fs.select(scores_dup, values_dup, K, fs.make_preset("coverage_oriented")).positions
print("coverage_oriented takes both twins for their relevance:", {31, 32} <= set(picked))

# Per-step gains are non-increasing (diminishing returns), and their sum
# telescopes back to the objective.
result = fs.select(scores, values, K, fs.make_preset("coverage_oriented"))
print("\ngains per accepted step:", np.round(result.gains, 4))
print("sum of gains:", round(sum(result.gains), 6), " objective:", round(result.objective, 6))

