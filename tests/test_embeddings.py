"""Embedding binary I/O, normalization, relevance scores, similarity matrix."""

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
        matrix = rng.normal(size=(7, 5))
        # Zero and non-finite rows are written as given, for the loader to name.
        matrix[1], matrix[3, 0], matrix[5, :2] = 0.0, np.nan, (-np.inf, 1e300)
        fs.write_embedding_file(first, matrix)
        fs.write_embedding_file(second, fs.read_embedding_file(first))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        ("matrix", "match"),
        [
            ([[10**400]], "^embedding matrix must be an array of numbers$"),
            ([[1.0, 2.0], [1.0]], "^embedding matrix must be an array of numbers$"),
            ([[0.0, 0.0], [1e300, 1.0]], "^embedding row 1 has non-finite norm once narrowed to float32$"),
            ([[np.nan, 0.0], [1e-50, 0.0]], "^embedding row 1 has zero norm once narrowed to float32$"),
            ([1.0, 2.0], r"^embedding matrix must be 2-D, got shape \(2,\)$"),
            (np.ones((1, 2, 2)), r"^embedding matrix must be 2-D, got shape \(1, 2, 2\)$"),
        ],
        ids=["int400", "ragged", "float32-overflow", "float32-underflow", "1-D", "3-D"],
    )
    def test_matrix_numpy_cannot_convert_is_refused_unwritten(self, tmp_path, matrix, match):
        # Refused before writing: what numpy cannot convert, and a finite,
        # non-zero row that float32 turns into inf or zeros, which the loader
        # would refuse.
        path = tmp_path / "m.fsel"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fs.ParameterError, match=match):
                fs.write_embedding_file(path, matrix)
        assert list(tmp_path.iterdir()) == []

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
        assert es.relevance.shape[0] == 5
        for matrix in (es.relevance, es.semantic):
            np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0, atol=1e-5)
        assert es.query.ndim == 1
        assert np.linalg.norm(es.query) == pytest.approx(1.0, abs=1e-5)

    def test_direct_construction_normalizes_and_checks(self, rng):
        relevance, query, semantic = unit_rows(rng, 5, 4) * 3.0, unit_rows(rng, 1, 4)[0] * 3.0, unit_rows(rng, 5, 3) * 0.2
        es = fs.EmbeddingSet(relevance, query, semantic)
        for matrix in (es.relevance, es.query[None, :], es.semantic):
            np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0, rtol=0.0, atol=1e-12)
        scores = fs.relevance_scores(es)
        assert ((scores >= 0.0) & (scores <= 1.0)).all()
        semantic[0] = 0.0
        with pytest.raises(fs.FormatError, match="^semantic row 0 has zero norm$"):
            fs.EmbeddingSet(relevance, query, semantic)

    def test_query_dimension_mismatch_is_alignment_error(self, rng):
        with pytest.raises(fs.AlignmentError):
            fs.EmbeddingSet(
                rng.normal(size=(4, 6)), rng.normal(size=(1, 5)), rng.normal(size=(4, 3))
            )

    def test_row_count_mismatch_is_alignment_error(self, rng):
        with pytest.raises(fs.AlignmentError, match="^relevance has 2 rows but semantic has 3$"):
            fs.EmbeddingSet(rng.normal(size=(2, 4)), rng.normal(size=4), rng.normal(size=(3, 3)))


class TestNormalization:
    def test_idempotence(self, rng):
        once = fs.l2_normalize_rows(rng.normal(size=(20, 7)))
        twice = fs.l2_normalize_rows(once)
        assert np.abs(twice - once).max() <= 1e-7

    def test_zero_row_rejected(self):
        with pytest.raises(fs.FormatError, match="^embedding row 0 has zero norm$"):
            fs.l2_normalize_rows(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_or_zero_row_is_named(self, bad, monkeypatch):
        m = np.ones((4, 3))
        m[1, 2] = bad
        m[2] = 0.0
        # one row per norm block, two rows per block, all rows in one block
        for block_values in (3, 6, 1 << 16):
            monkeypatch.setattr(embeddings, "_NORM_BLOCK_VALUES", block_values)
            with pytest.raises(fs.FormatError, match="row 1 has non-finite norm"):
                fs.l2_normalize_rows(m)
            with pytest.raises(fs.FormatError, match="row 1 has zero norm"):
                fs.l2_normalize_rows(m[[0, 2, 1, 3]])

    @pytest.mark.parametrize("matrix", [[[10**400, 1.0]], [[1.0, 2.0], [1.0]], [["a", 1.0]]], ids=["int400", "ragged", "string"])
    def test_matrix_numpy_cannot_convert_is_refused(self, matrix):
        # numpy's raw OverflowError or ValueError escaped.
        with pytest.raises(fs.ParameterError, match="^embedding matrix must be an array of numbers$"):
            fs.l2_normalize_rows(matrix)

    @pytest.mark.parametrize(
        ("relevance", "query", "match"),
        [
            ([[10**400, 1.0]], [1.0, 0.0], "^relevance matrix must be an array of numbers$"),
            ([[1.0, 1.0]], [10**400, 0.0], "^query must be an array of numbers$"),
            ([[1.0, 1.0]], [[1.0, 0.0], [1.0]], "^query must be an array of numbers$"),
            ([[1.0]], 5.0, r"^query must be a vector or a single-row matrix, got shape \(\)$"),
            ([1.0, 1.0], [1.0, 0.0], r"^relevance matrix must be 2-D, got shape \(2,\)$"),
            (np.ones((1, 1, 2)), [1.0, 0.0], r"^relevance matrix must be 2-D, got shape \(1, 1, 2\)$"),
        ],
        ids=["int400-relevance", "int400-query", "ragged-query", "scalar-query", "1-D-relevance", "3-D-relevance"],
    )
    def test_arrays_numpy_cannot_convert_are_refused_by_name(self, relevance, query, match):
        with pytest.raises(fs.ParameterError, match=match):
            fs.EmbeddingSet(relevance, query, [[1.0]])

    @pytest.mark.parametrize("target", ["relevance", "query"])
    def test_signaling_nan_is_rejected_without_a_warning(self, target):
        # float32 0x7f810000 is a signaling NaN; widening it to float64 sets
        # the invalid flag, which must not surface as a RuntimeWarning.
        snan = np.frombuffer(b"\x00\x00\x81\x7f", dtype="<f4")[0]
        arrays = {"relevance": np.ones((2, 3), np.float32), "query": np.ones(3, np.float32)}
        arrays[target][..., 1] = snan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fs.FormatError, match=f"{target} row 0 has non-finite norm"):
                fs.EmbeddingSet(arrays["relevance"], arrays["query"], np.ones((2, 2), np.float32))

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
        es = fs.EmbeddingSet(
            np.array([[0.0, 2.0]]), np.array([[0.0, 5.0]]), np.eye(1, 3)
        )
        assert fs.relevance_scores(es)[0] == pytest.approx(1.0, abs=1e-12)

    def test_negative_cosine_clamps_to_zero(self):
        es = fs.EmbeddingSet(
            rows_with_cosines([-0.3]), np.array([[1.0, 0.0]]), np.eye(1, 3)
        )
        assert fs.relevance_scores(es)[0] == 0.0

    def test_zscore_frozen_example(self):
        es = fs.EmbeddingSet(
            rows_with_cosines([0.9, 0.5, 0.1]), np.array([[1.0, 0.0]]), np.eye(3)
        )
        got = fs.relevance_scores(es, "zscore_relu_maxnorm")
        np.testing.assert_allclose(got, [1.0, 0.0, 0.0], atol=1e-9)
        assert got.max() == 1.0

    def test_zscore_matches_reference_pipeline(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 12))
            cosines = rng.uniform(-1.0, 1.0, size=n)
            es = fs.EmbeddingSet(
                rows_with_cosines(cosines), np.array([[1.0, 0.0]]), unit_rows(rng, n, 4)
            )
            got = fs.relevance_scores(es, "zscore_relu_maxnorm")
            want = ref_zscore_scores([float(np.dot(r, [1.0, 0.0])) for r in es.relevance])
            np.testing.assert_allclose(got, want, atol=1e-9)
            if got.max() > 0:
                assert got.max() == 1.0

    def test_zscore_constant_cosines_all_zero(self):
        es = fs.EmbeddingSet(
            rows_with_cosines([0.4, 0.4, 0.4]), np.array([[1.0, 0.0]]), np.eye(3)
        )
        assert fs.relevance_scores(es, "zscore_relu_maxnorm").tolist() == [0.0, 0.0, 0.0]

    def test_unknown_mode_rejected(self, rng):
        es = fs.EmbeddingSet(
            rows_with_cosines([0.5]), np.array([[1.0, 0.0]]), np.eye(1, 3)
        )
        with pytest.raises(fs.ParameterError):
            fs.relevance_scores(es, "sigmoid")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-0.999, max_value=0.999), min_size=2, max_size=10))
    def test_zscore_preserves_order_of_positive_scores(self, cosines):
        es = fs.EmbeddingSet(
            rows_with_cosines(np.array(cosines)),
            np.array([[1.0, 0.0]]),
            np.tile([1.0, 0.0, 0.0], (len(cosines), 1)),
        )
        scores = fs.relevance_scores(es, "zscore_relu_maxnorm")
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
        es = fs.EmbeddingSet(
            np.eye(2, 4), np.eye(1, 4), np.array([[0.0, 3.0], [0.0, 7.0]])
        )
        np.testing.assert_allclose(fs.similarity_matrix(es), np.ones((2, 2)), atol=1e-5)

    def test_orthogonal_rows(self):
        es = fs.EmbeddingSet(np.eye(2, 4), np.eye(1, 4), np.eye(2))
        np.testing.assert_allclose(fs.similarity_matrix(es), np.eye(2), atol=1e-5)

    def test_sixty_degree_rows(self):
        sem = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        es = fs.EmbeddingSet(np.eye(2, 4), np.eye(1, 4), sem)
        assert fs.similarity_matrix(es)[0, 1] == pytest.approx(0.5, abs=1e-5)

    def test_random_matrices_satisfy_bounds_and_validate(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 15))
            es = fs.EmbeddingSet(
                unit_rows(rng, n, 5), unit_rows(rng, 1, 5), rng.normal(size=(n, 6))
            )
            sim = fs.similarity_matrix(es)
            assert sim.min() >= -1 - 1e-6 and sim.max() <= 1 + 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 700, 1001])
    @pytest.mark.parametrize("d", [1, 3, 64, 768])
    def test_matrix_is_symmetric_bit_for_bit(self, rng, n, d):
        # Greedy reads row e as candidate e; a matrix equal to its
        # transpose bit for bit gives the same bits under either reading.
        es = fs.EmbeddingSet(unit_rows(rng, n, 2), unit_rows(rng, 1, 2), rng.normal(size=(n, d)))
        bits = fs.similarity_matrix(es).view(np.int64)
        assert np.array_equal(bits, bits.T)
