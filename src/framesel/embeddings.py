"""Precomputed per-candidate embeddings in two spaces, and the scores
derived from them.

The selector never runs an encoder.  It consumes three binary files per
video, one row per pool position, in this little-endian layout:

====== ===== ====================================
offset size  content
====== ===== ====================================
0      4     magic ``FSEL``
4      4     format version, unsigned 32-bit, = 1
8      4     row count, unsigned 32-bit
12     4     dimension, unsigned 32-bit
16     --    rows x dimension IEEE-754 float32, row-major, no trailing bytes
====== ===== ====================================

Query vectors use the same layout with a single row.  Rows are
L2-normalized on load (in float64) so inner products are cosines; a row of
zeros or a row whose norm is not finite (NaN or inf entries) cannot be
normalized and is rejected rather than skipped, because skipping would
silently shift every later row off its pool position.

Two spaces are kept deliberately separate: the *relevance* space scores
each candidate against the query text, the *semantic* space measures
candidate-to-candidate similarity for the coverage objective.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AlignmentError, FormatError, ParameterError
from .fileio import atomic_write_bytes, read_json, require_key, write_json
from .pool import _floats, pool_manifest_doc

EMBEDDING_MAGIC = b"FSEL"
EMBEDDING_VERSION = 1
_HEADER = struct.Struct("<4sIII")

DEFAULT_RELEVANCE_MODE = "raw_relu"
RELEVANCE_MODES = (DEFAULT_RELEVANCE_MODE, "zscore_relu_maxnorm")

# float64 values per row block of l2_normalize_rows' norms (512 KiB).
_NORM_BLOCK_VALUES = 1 << 16


def write_embedding_file(path, matrix: np.ndarray) -> None:
    """Write a 2-D array as a little-endian float32 embedding file.

    Raises:
        ParameterError: a row the caller gave finite and non-zero would be
            read back with non-finite or zero norm once narrowed to float32
            (the message names the first such row, 0-based); nothing is
            written.
    """
    message = "embedding matrix must be an array of numbers"
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(_floats(matrix, message, "<f4"))
    if arr.ndim != 2:
        raise ParameterError(f"embedding matrix must be 2-D, got shape {arr.shape}")
    non_finite = ~np.isfinite(arr).all(axis=1)
    rows = np.flatnonzero(non_finite | ~arr.any(axis=1))
    if rows.size:
        # Only the rows the narrowing emptied or overflowed; the caller's own
        # zero and non-finite rows are written as given.
        given = _floats(matrix, message)[rows]
        lost = rows[np.isfinite(given).all(axis=1) & given.any(axis=1)]
        if lost.size:
            row = int(lost[0])
            kind = "non-finite" if non_finite[row] else "zero"
            raise ParameterError(f"embedding row {row} has {kind} norm once narrowed to float32")
    header = _HEADER.pack(EMBEDDING_MAGIC, EMBEDDING_VERSION, arr.shape[0], arr.shape[1])
    atomic_write_bytes(path, header + arr.tobytes())


def read_embedding_file(path) -> np.ndarray:
    """Read an embedding file back as the float32 matrix it stores.

    Raises:
        FormatError: wrong magic, wrong version, or a payload whose size
            disagrees with the declared rows x dimension.
    """
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError(f"{path}: truncated header ({len(header)} bytes)")
        magic, version, rows, dim = _HEADER.unpack(header)
        if magic != EMBEDDING_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {EMBEDDING_MAGIC!r}")
        if version != EMBEDDING_VERSION:
            raise FormatError(f"{path}: unsupported version {version}, expected {EMBEDDING_VERSION}")
        # The payload is read straight into the array it is returned in; the
        # file size is checked first, so a forged header allocates nothing.
        expected = rows * dim * 4
        payload = os.fstat(handle.fileno()).st_size - _HEADER.size
        if payload == expected:
            out = np.empty((rows, dim), dtype="<f4")
            payload = handle.readinto(out)
        if payload != expected:
            raise FormatError(f"{path}: payload is {payload} bytes, expected {expected} for {rows}x{dim} float32")
    return out


def l2_normalize_rows(matrix: np.ndarray, label: str = "embedding") -> np.ndarray:
    """Return a float64 copy of ``matrix`` with unit-norm rows, read-only.

    The input is never written, whatever its dtype.

    Raises:
        ParameterError: ``matrix`` is not an array of numbers, or is not
            2-D; the message names ``label``.
        FormatError: some row has zero or non-finite norm; the
            message names the first offending row (0-based file row order).
    """
    # A float32 signaling NaN is still a NaN once widened, and the norm
    # check below rejects its row.
    out = _floats(matrix, f"{label} matrix must be an array of numbers", copy=True)
    if out.ndim != 2:
        raise ParameterError(f"{label} matrix must be 2-D, got shape {out.shape}")
    # Norms over row blocks keep norm's squared temporaries cache-sized; each
    # row is still reduced whole, so every norm has the whole-matrix bits.
    norms = np.empty(out.shape[0])
    step = max(1, _NORM_BLOCK_VALUES // max(out.shape[1], 1))
    for i in range(0, out.shape[0], step):
        norms[i : i + step] = np.linalg.norm(out[i : i + step], axis=1)
    bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
    if bad.size:
        row = int(bad[0])
        kind = "zero" if norms[row] == 0.0 else "non-finite"
        raise FormatError(f"{label} row {row} has {kind} norm")
    np.divide(out, norms[:, None], out=out)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """Unit-norm relevance/semantic matrices plus the query vector.

    ``relevance`` is N x d_s, ``semantic`` is N x d_d, ``query`` is d_s (a
    flat vector or a single-row matrix on input); row order equals pool
    position order.  Each is stored as :func:`l2_normalize_rows` returns it,
    read-only float64 with unit rows, so inner products are cosines.  The
    set carries no video identity: the pool that shares its manifest does.

    Raises:
        FormatError: a zero-norm or non-finite row.
        AlignmentError: a multi-row query, or shapes that do not align.
        ParameterError: a 0-d query, or not a numeric array of the right rank.
    """

    relevance: np.ndarray
    query: np.ndarray
    semantic: np.ndarray

    def __post_init__(self) -> None:
        q = _floats(self.query, "query must be an array of numbers")
        if q.ndim == 0:
            raise ParameterError(f"query must be a vector or a single-row matrix, got shape {q.shape}")
        q = q[None, :] if q.ndim == 1 else q
        if q.shape[0] != 1:
            raise AlignmentError(f"query must be a single vector, got {q.shape[0]} rows")
        rel = l2_normalize_rows(self.relevance, label="relevance")
        sem = l2_normalize_rows(self.semantic, label="semantic")
        q = l2_normalize_rows(q, label="query")[0]
        if rel.shape[0] != sem.shape[0]:
            raise AlignmentError(f"relevance has {rel.shape[0]} rows but semantic has {sem.shape[0]}")
        if q.shape[0] != rel.shape[1]:
            raise AlignmentError(f"query dimension {q.shape[0]} does not match relevance dimension {rel.shape[1]}")
        object.__setattr__(self, "relevance", rel)
        object.__setattr__(self, "query", q)
        object.__setattr__(self, "semantic", sem)


def write_embedding_manifest(pool, relevance_path, semantic_path, query_path, out_path) -> None:
    """Write ``pool``'s manifest extended with the three embedding file paths."""
    doc = pool_manifest_doc(pool)
    doc["relevance_embeddings"] = relevance_path
    doc["semantic_embeddings"] = semantic_path
    doc["query_embedding"] = query_path
    write_json(out_path, doc)


def load_embeddings(manifest_path) -> EmbeddingSet:
    """Load the embedding set referenced by an extended pool manifest.

    Relative embedding paths are resolved against the manifest's directory.

    Raises:
        FormatError: malformed manifest or embedding file, or a zero-norm or
            non-finite row in any file.
        AlignmentError: row counts that disagree with the manifest's pool,
            or a query file that does not hold exactly one row.
    """
    doc = read_json(manifest_path)
    where = str(manifest_path)
    seconds = require_key(doc, "seconds", list, where)
    n = len(seconds)
    base = Path(manifest_path).parent

    def resolve(key: str) -> Path:
        rel = require_key(doc, key, str, where)
        if "\0" in rel:
            raise FormatError(f"{where}: key {key!r} holds a NUL character")
        p = Path(rel)
        return p if p.is_absolute() else base / p

    relevance = read_embedding_file(resolve("relevance_embeddings"))
    semantic = read_embedding_file(resolve("semantic_embeddings"))
    query = read_embedding_file(resolve("query_embedding"))
    if relevance.shape[0] != n:
        raise AlignmentError(
            f"relevance embeddings have {relevance.shape[0]} rows, pool has {n} candidates"
        )
    if semantic.shape[0] != n:
        raise AlignmentError(
            f"semantic embeddings have {semantic.shape[0]} rows, pool has {n} candidates"
        )
    return EmbeddingSet(relevance, query, semantic)


def relevance_scores(es: EmbeddingSet, mode: str = DEFAULT_RELEVANCE_MODE) -> np.ndarray:
    """Score every candidate against the query; returns a read-only vector.

    The float64 vector holds one non-negative entry per pool position.
    ``raw_relu`` is the primary definition: the cosine against the query,
    clamped at zero.  ``zscore_relu_maxnorm`` standardizes the cosines
    within the video (population std), clamps at zero, and rescales so the
    best candidate scores exactly 1; a constant cosine profile (std 0)
    degrades to all-zero scores, i.e. coverage-only behavior.  Both keep
    scores non-negative and preserve the within-video ordering of the
    positive entries.

    Raises:
        ParameterError: ``mode`` is not one of ``RELEVANCE_MODES``.
    """
    cosines = es.relevance @ es.query
    if mode == "raw_relu":
        scores = np.maximum(cosines, 0.0)
    elif mode == "zscore_relu_maxnorm":
        std = float(cosines.std())
        if std == 0.0:
            scores = np.zeros_like(cosines)
        else:
            z = np.maximum((cosines - cosines.mean()) / std, 0.0)
            peak = float(z.max())
            scores = z / peak if peak > 0.0 else np.zeros_like(z)
    else:
        raise ParameterError(f"unknown relevance mode {mode!r}, expected one of {RELEVANCE_MODES}")
    scores.flags.writeable = False
    return scores


def similarity_matrix(es: EmbeddingSet) -> np.ndarray:
    """All pairwise inner products of the normalized semantic rows.

    Returns a read-only N x N array; entry [i, j] is how well candidate i
    covers j.  numpy fills both triangles of ``a @ a.T`` from one SYRK
    call, so the matrix equals its transpose bit for bit.
    """
    values = es.semantic @ es.semantic.T
    values.flags.writeable = False
    return values


def similarity_issues(values) -> list[str]:
    """Report a similarity matrix's defects, read as float64, to a 1e-5 tolerance; empty means clean."""
    try:
        v = _floats(values, "not an array of numbers")
    except ParameterError as exc:
        return [str(exc)]
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        return [f"not square: shape {v.shape}"]
    bad = np.argwhere(~np.isfinite(v))
    if bad.size:
        # The checks below compare magnitudes, which NaN and inf defeat.
        i, j = (int(x) for x in bad[0])
        return [f"non-finite entries: {bad.shape[0]}, first at [{i}, {j}]"]
    issues: list[str] = []
    asym = float(np.abs(v - v.T).max()) if v.size else 0.0
    if asym > 1e-5:
        issues.append(f"not symmetric: max |v - v.T| = {asym:.3e}")
    diag_err = float(np.abs(np.diagonal(v) - 1.0).max()) if v.size else 0.0
    if diag_err > 1e-5:
        issues.append(f"diagonal deviates from 1 by {diag_err:.3e}")
    if v.size and (float(v.min()) < -1.0 - 1e-6 or float(v.max()) > 1.0 + 1e-6):
        issues.append(f"entries outside [-1, 1]: range [{float(v.min()):.6f}, {float(v.max()):.6f}]")
    return issues
