"""Embedding binary I/O, normalization, relevance scores, similarity matrix."""

import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framesel as fs
from framesel import embeddings
from conftest import rows_with_cosines, unit_rows, write_fixture_manifest
from reference import ref_zscore_scores


class TestBinaryFormat:
    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.fsel"
        matrix = np.arange(12, dtype=np.float64).reshape(3, 4)
        fs.write_embedding_file(path, matrix)
        blob = path.read_bytes()
        magic, version, rows, dim = struct.unpack("<4sIII", blob[:16])
        assert magic == b"FSEL" and version == 1 and (rows, dim) == (3, 4)
        payload = np.frombuffer(blob, dtype="<f4", offset=16)
        assert payload.shape == (12,)
        np.testing.assert_array_equal(payload.reshape(3, 4), matrix.astype(np.float32))
        assert len(blob) == 16 + 12 * 4

    def test_round_trip_is_byte_identical(self, tmp_path, rng):
        first = tmp_path / "a.fsel"
        second = tmp_path / "b.fsel"
        fs.write_embedding_file(first, rng.normal(size=(7, 5)))
        fs.write_embedding_file(second, fs.read_embedding_file(first))
        assert first.read_bytes() == second.read_bytes()

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "m.fsel"
        fs.write_embedding_file(path, np.ones((2, 2)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(fs.FormatError, match="magic"):
            fs.read_embedding_file(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.fsel"
        fs.write_embedding_file(path, np.ones((2, 2)))
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(fs.FormatError, match="version"):
            fs.read_embedding_file(path)

    def test_row_count_mismatch_against_payload(self, tmp_path):
        path = tmp_path / "m.fsel"
        fs.write_embedding_file(path, np.ones((2, 3)))
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 5)
        path.write_bytes(bytes(blob))
        with pytest.raises(fs.FormatError):
            fs.read_embedding_file(path)

    def test_truncated_payload_and_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.fsel"
        fs.write_embedding_file(path, np.ones((2, 3)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(fs.FormatError):
            fs.read_embedding_file(path)
        path.write_bytes(blob + b"\x00\x00\x00\x00")
        with pytest.raises(fs.FormatError):
            fs.read_embedding_file(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.fsel"
        path.write_bytes(b"FSEL\x01")
        with pytest.raises(fs.FormatError):
            fs.read_embedding_file(path)

    def test_read_allocates_one_writable_payload(self, tmp_path, rng):
        path = tmp_path / "m.fsel"
        matrix = rng.normal(size=(2000, 128))
        fs.write_embedding_file(path, matrix)
        tracemalloc.start()
        try:
            got = fs.read_embedding_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.dtype == np.dtype("<f4") and got.shape == (2000, 128)
        assert got.flags.writeable and got.flags.c_contiguous
        assert got.tobytes() == matrix.astype("<f4").tobytes()
        assert peak < 1.1 * got.nbytes


class TestLoadEmbeddings:
    def test_loads_and_normalizes(self, tmp_path, rng):
        manifest = write_fixture_manifest(
            tmp_path,
            rng.normal(size=(5, 4)) * 3.0,
            rng.normal(size=(5, 3)) * 0.2,
            rng.normal(size=(1, 4)),
        )
        es = fs.load_embeddings(manifest)
        assert es.n == 5
        for matrix in (es.relevance, es.semantic):
            np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0, atol=1e-5)
        assert es.query.ndim == 1
        assert np.linalg.norm(es.query) == pytest.approx(1.0, abs=1e-5)

    def test_semantic_row_count_mismatch_is_alignment_error(self, tmp_path, rng):
        manifest = write_fixture_manifest(
            tmp_path, rng.normal(size=(5, 4)), rng.normal(size=(5, 3)), rng.normal(size=(1, 4))
        )
        fs.write_embedding_file(tmp_path / "semantic.fsel", rng.normal(size=(4, 3)))
        with pytest.raises(fs.AlignmentError):
            fs.load_embeddings(manifest)

    def test_multi_row_query_is_alignment_error(self, tmp_path, rng):
        manifest = write_fixture_manifest(
            tmp_path, rng.normal(size=(5, 4)), rng.normal(size=(5, 3)), rng.normal(size=(1, 4))
        )
        fs.write_embedding_file(tmp_path / "query.fsel", rng.normal(size=(2, 4)))
        with pytest.raises(fs.AlignmentError):
            fs.load_embeddings(manifest)

    def test_zero_norm_row_is_named(self, tmp_path, rng):
        relevance = rng.normal(size=(5, 4))
        relevance[3] = 0.0
        manifest = write_fixture_manifest(
            tmp_path, relevance, rng.normal(size=(5, 3)), rng.normal(size=(1, 4))
        )
        with pytest.raises(fs.DegenerateEmbeddingError, match="row 3"):
            fs.load_embeddings(manifest)

    def test_nul_in_embedding_path_is_format_error(self, tmp_path, rng):
        manifest = write_fixture_manifest(
            tmp_path, rng.normal(size=(3, 4)), rng.normal(size=(3, 3)), rng.normal(size=(1, 4))
        )
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["semantic_embeddings"] = "semantic\0.fsel"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(fs.FormatError, match="NUL"):
            fs.load_embeddings(manifest)

    def test_query_dimension_mismatch_is_alignment_error(self, rng):
        with pytest.raises(fs.AlignmentError):
            fs.EmbeddingSet.from_arrays(
                "v", rng.normal(size=(4, 6)), rng.normal(size=(1, 5)), rng.normal(size=(4, 3))
            )


class TestNormalization:
    def test_idempotence(self, rng):
        once = fs.l2_normalize_rows(rng.normal(size=(20, 7)))
        twice = fs.l2_normalize_rows(once)
        assert np.abs(twice - once).max() <= 1e-7

    def test_zero_row_rejected(self):
        with pytest.raises(fs.DegenerateEmbeddingError):
            fs.l2_normalize_rows(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_or_zero_row_is_named(self, bad, monkeypatch):
        m = np.ones((4, 3))
        m[1, 2] = bad
        m[2] = 0.0
        # one row per norm block, two rows per block, all rows in one block
        for block_values in (3, 6, 1 << 16):
            monkeypatch.setattr(embeddings, "_NORM_BLOCK_VALUES", block_values)
            with pytest.raises(fs.DegenerateEmbeddingError, match="row 1 has non-finite norm"):
                fs.l2_normalize_rows(m)
            with pytest.raises(fs.DegenerateEmbeddingError, match="row 1 has zero norm"):
                fs.l2_normalize_rows(m[[0, 2, 1, 3]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_norms_keep_whole_matrix_bits(self, dtype, rng, monkeypatch):
        m = (rng.normal(size=(37, 11)) * 5.0).astype(dtype)
        m64 = m.astype(np.float64)
        want = m64 / np.linalg.norm(m64, axis=1)[:, None]
        # 1 row, 5 rows (a ragged last block of 2), every row in one block
        for block_values in (1, 55, 1 << 16):
            monkeypatch.setattr(embeddings, "_NORM_BLOCK_VALUES", block_values)
            got = fs.l2_normalize_rows(m)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_float64_input_is_never_written(self, rng):
        m = rng.normal(size=(9, 4)) * 3.0
        before = m.copy()
        out = fs.l2_normalize_rows(m)
        assert m.tobytes() == before.tobytes() and m.flags.writeable
        assert not np.shares_memory(out, m)


class TestRelevanceScores:
    def test_identical_vector_scores_one(self):
        es = fs.EmbeddingSet.from_arrays(
            "v", np.array([[0.0, 2.0]]), np.array([[0.0, 5.0]]), np.eye(1, 3)
        )
        assert fs.relevance_scores(es).scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_negative_cosine_clamps_to_zero(self):
        es = fs.EmbeddingSet.from_arrays(
            "v", rows_with_cosines([-0.3]), np.array([[1.0, 0.0]]), np.eye(1, 3)
        )
        assert fs.relevance_scores(es).scores[0] == 0.0

    def test_zscore_frozen_example(self):
        es = fs.EmbeddingSet.from_arrays(
            "v", rows_with_cosines([0.9, 0.5, 0.1]), np.array([[1.0, 0.0]]), np.eye(3)
        )
        got = fs.relevance_scores(es, "zscore_relu_maxnorm").scores
        np.testing.assert_allclose(got, [1.0, 0.0, 0.0], atol=1e-9)
        assert got.max() == 1.0

    def test_zscore_matches_reference_pipeline(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 12))
            cosines = rng.uniform(-1.0, 1.0, size=n)
            es = fs.EmbeddingSet.from_arrays(
                "v", rows_with_cosines(cosines), np.array([[1.0, 0.0]]), unit_rows(rng, n, 4)
            )
            got = fs.relevance_scores(es, "zscore_relu_maxnorm").scores
            want = ref_zscore_scores([float(np.dot(r, [1.0, 0.0])) for r in es.relevance])
            np.testing.assert_allclose(got, want, atol=1e-9)
            if got.max() > 0:
                assert got.max() == 1.0

    def test_zscore_constant_cosines_all_zero(self):
        es = fs.EmbeddingSet.from_arrays(
            "v", rows_with_cosines([0.4, 0.4, 0.4]), np.array([[1.0, 0.0]]), np.eye(3)
        )
        assert fs.relevance_scores(es, "zscore_relu_maxnorm").scores.tolist() == [0.0, 0.0, 0.0]

    def test_unknown_mode_rejected(self, rng):
        es = fs.EmbeddingSet.from_arrays(
            "v", rows_with_cosines([0.5]), np.array([[1.0, 0.0]]), np.eye(1, 3)
        )
        with pytest.raises(fs.ParameterError):
            fs.relevance_scores(es, "sigmoid")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-0.999, max_value=0.999), min_size=2, max_size=10))
    def test_zscore_preserves_order_of_positive_scores(self, cosines):
        es = fs.EmbeddingSet.from_arrays(
            "v",
            rows_with_cosines(np.array(cosines)),
            np.array([[1.0, 0.0]]),
            np.tile([1.0, 0.0, 0.0], (len(cosines), 1)),
        )
        scores = fs.relevance_scores(es, "zscore_relu_maxnorm").scores
        assert (scores >= 0).all()
        raw = [float(np.dot(r, [1.0, 0.0])) for r in es.relevance]
        for i in range(len(cosines)):
            for j in range(len(cosines)):
                if scores[i] > 0 and scores[j] > 0 and raw[i] > raw[j]:
                    # affine rescaling never inverts order; gaps below float
                    # resolution may collapse to equality, so strictness is
                    # only required for representable raw-score gaps
                    assert scores[i] >= scores[j]
                    if raw[i] - raw[j] > 1e-6:
                        assert scores[i] > scores[j]


class TestSimilarityMatrix:
    def test_identical_rows(self):
        es = fs.EmbeddingSet.from_arrays(
            "v", np.eye(2, 4), np.eye(1, 4), np.array([[0.0, 3.0], [0.0, 7.0]])
        )
        np.testing.assert_allclose(fs.similarity_matrix(es).values, np.ones((2, 2)), atol=1e-5)

    def test_orthogonal_rows(self):
        es = fs.EmbeddingSet.from_arrays("v", np.eye(2, 4), np.eye(1, 4), np.eye(2))
        np.testing.assert_allclose(fs.similarity_matrix(es).values, np.eye(2), atol=1e-5)

    def test_sixty_degree_rows(self):
        sem = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        es = fs.EmbeddingSet.from_arrays("v", np.eye(2, 4), np.eye(1, 4), sem)
        assert fs.similarity_matrix(es).values[0, 1] == pytest.approx(0.5, abs=1e-5)

    def test_random_matrices_satisfy_bounds_and_validate(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 15))
            es = fs.EmbeddingSet.from_arrays(
                "v", unit_rows(rng, n, 5), unit_rows(rng, 1, 5), rng.normal(size=(n, 6))
            )
            sim = fs.similarity_matrix(es)
            assert sim.values.min() >= -1 - 1e-6 and sim.values.max() <= 1 + 1e-6
            assert sim.validate() == []

    def test_validate_reports_asymmetry(self):
        values = np.eye(3)
        values[0, 1] = 0.5
        issues = fs.SimilarityMatrix(values=values).validate()
        assert any("symmetr" in issue for issue in issues)

    @pytest.mark.parametrize("cells", [[(0, 1)], [(0, 1), (1, 0)]])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_validate_reports_non_finite_entries_without_warning(self, cells, bad):
        values = np.eye(3)
        for cell in cells:
            values[cell] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            issues = fs.SimilarityMatrix(values=values).validate()
        assert issues == [f"non-finite entries: {len(cells)}, first at [0, 1]"]

    def test_validate_reports_bad_diagonal(self):
        values = np.eye(3)
        values[1, 1] = 0.4
        issues = fs.SimilarityMatrix(values=values).validate()
        assert any("diagonal" in issue for issue in issues)


def test_manifest_requires_all_embedding_paths(tmp_path, rng):
    manifest = write_fixture_manifest(
        tmp_path, rng.normal(size=(3, 4)), rng.normal(size=(3, 3)), rng.normal(size=(1, 4))
    )
    pool = fs.read_pool_manifest(manifest)
    fs.write_pool_manifest(pool, manifest)
    with pytest.raises(fs.FormatError, match="relevance_embeddings"):
        fs.load_embeddings(manifest)
