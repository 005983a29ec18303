"""
Embedding files, relevance scores and the similarity matrix
===========================================================

Embeddings arrive precomputed: one row per pool candidate, stored in a
small binary format (magic 'FSEL', version, row count, dimension, then
row-major float32). This script fabricates a 12-candidate video whose
middle third matches the query, writes the three files plus the
manifest, and walks through what the loaders derive from them.
"""

import tempfile
from pathlib import Path

import numpy as np

import framesel as fs

rng = np.random.default_rng(7)
n = 12

# Relevance rows live in the query encoder's space. Candidates 5..8
# point roughly at the query direction, the rest roughly away.
query = np.array([1.0, 0.0, 0.0, 0.0])
relevance = rng.normal(scale=0.15, size=(n, 4))
relevance[:, 1] += 1.0
relevance[4:8, 0] += 2.5   # the "relevant" stretch of the video

# Semantic rows live in a separate space used only for coverage.
semantic = rng.normal(size=(n, 6))

tmp = tempfile.TemporaryDirectory()
base = Path(tmp.name)

meta = fs.VideoMeta(video_id="demo", fps=1.0, total_frames=n)
pool = fs.build_pool(meta)
fs.write_embedding_file(base / "relevance.fsel", relevance)
fs.write_embedding_file(base / "semantic.fsel", semantic)
fs.write_embedding_file(base / "query.fsel", query[None, :])
fs.write_embedding_manifest(pool, "relevance.fsel", "semantic.fsel", "query.fsel", base / "manifest.json")

raw = (base / "relevance.fsel").read_bytes()
print(f"relevance.fsel: {len(raw)} bytes, header {raw[:4]!r} + {n} x 4 float32 rows")

# Loading normalizes every row to unit length, so dot products are
# cosines from here on.
es = fs.load_embeddings(base / "manifest.json")
print("row norms after load:", np.round(np.linalg.norm(es.relevance, axis=1), 6))

# Scores come back as a read-only float64 vector, one entry per
# candidate. raw_relu: clamp negative cosines to zero, keep the rest as-is.
plain = fs.relevance_scores(es, "raw_relu")
print("\nraw_relu scores:")
print(" ", np.round(plain, 3))

# zscore_relu_maxnorm: standardize first, so only candidates above the
# video's own mean survive, then scale the best one to exactly 1.
sharp = fs.relevance_scores(es, "zscore_relu_maxnorm")
print("zscore_relu_maxnorm scores:")
print(" ", np.round(sharp, 3))
print("note how standardization zeroes the mediocre candidates entirely")

# The semantic matrix becomes a read-only N x N cosine array used by
# coverage; similarity_issues reports any structural defect it has.
sim = fs.similarity_matrix(es)
print(f"\nsimilarity matrix: {sim.shape}, diagonal all ones:",
      bool(np.allclose(np.diag(sim), 1.0)))
print("similarity_issues found:", fs.similarity_issues(sim) or "none")

# A zero row cannot be normalized, so it is rejected at load time with
# the offending row number.
fs.write_embedding_file(base / "semantic.fsel", np.vstack([semantic[:-1], np.zeros(6)]))
try:
    fs.load_embeddings(base / "manifest.json")
except fs.FormatError as exc:
    print("\nzero-norm row rejected:", exc)

tmp.cleanup()
