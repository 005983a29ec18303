"""Candidate pool construction and coordinate alignment."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framesel as fs
from framesel.pool import even_spacing
from reference import ref_even_spacing, ref_frame_index


class TestVideoMeta:
    def test_rejects_bad_fps_and_frames(self):
        with pytest.raises(fs.ParameterError):
            fs.VideoMeta("v", 0.0, 10)
        with pytest.raises(fs.ParameterError):
            fs.VideoMeta("v", -2.0, 10)
        with pytest.raises(fs.ParameterError):
            fs.VideoMeta("v", 1.0, 0)
        # total_frames / fps must be a finite float: beyond the float range,
        # the duration used to end in a raw OverflowError
        with pytest.raises(fs.ParameterError):
            fs.VideoMeta("v", 2.0, 10**400)
        with pytest.raises(fs.ParameterError):
            fs.VideoMeta("v", 1e-300, 10**10)

    def test_duration_is_floor_of_frames_over_fps(self):
        assert fs.VideoMeta("v", 2.0, 10).duration_seconds == 5
        assert fs.VideoMeta("v", 29.97, 100).duration_seconds == 3
        assert fs.VideoMeta("v", 30.0, 15).duration_seconds == 0


class TestBuildPool:
    def test_identity_pool_below_cap(self):
        pool = fs.build_pool(fs.VideoMeta("v", 2.0, 10))
        assert pool.seconds == (0, 1, 2, 3, 4)

    def test_downsampled_pool_matches_reference_spacing(self):
        pool = fs.build_pool(fs.VideoMeta("v", 25.0, 30000))
        assert pool.n == 1000
        assert pool.seconds[0] == 0
        assert pool.seconds[1] == 1
        assert pool.seconds[999] == 1199
        assert list(pool.seconds) == ref_even_spacing(1200, 1000)

    def test_zero_duration_is_an_empty_pool_error(self):
        with pytest.raises(fs.EmptyPoolError):
            fs.build_pool(fs.VideoMeta("v", 30.0, 15))

    def test_cap_one_with_longer_video_is_degenerate(self):
        with pytest.raises(fs.DegenerateSpacingError):
            fs.build_pool(fs.VideoMeta("v", 1.0, 5), cap=1)

    def test_cap_one_with_one_second_video_is_fine(self):
        assert fs.build_pool(fs.VideoMeta("v", 1.0, 1), cap=1).seconds == (0,)

    def test_duration_equal_to_cap_takes_identity_branch(self):
        pool = fs.build_pool(fs.VideoMeta("v", 1.0, 8), cap=8)
        assert pool.seconds == tuple(range(8))

    def test_cap_below_one_rejected(self):
        with pytest.raises(fs.ParameterError):
            fs.build_pool(fs.VideoMeta("v", 1.0, 5), cap=0)

    def test_pool_past_the_embedding_row_limit_rejected(self):
        # A .fsel row count is a u32; the limit counts candidates, not seconds.
        # 10**12 rather than 2**32: without the check, its tuple fails to
        # allocate at once instead of filling memory.
        long = fs.VideoMeta("v", 1.0, 10**12)
        with pytest.raises(fs.ParameterError, match="4294967295"):
            fs.build_pool(long, cap=10**12)
        assert fs.build_pool(long, cap=3).seconds == (0, (10**12 - 1) // 2, 10**12 - 1)
        assert fs.build_pool(fs.VideoMeta("v", 1.0, 3), cap=10**12).seconds == (0, 1, 2)

    def test_determinism(self):
        meta = fs.VideoMeta("v", 23.976, 10**6)
        assert fs.build_pool(meta).seconds == fs.build_pool(meta).seconds

    @settings(max_examples=200, deadline=None)
    @given(
        fps=st.floats(min_value=0.1, max_value=120.0, allow_nan=False, allow_infinity=False),
        frames=st.integers(min_value=1, max_value=10**7),
        cap=st.integers(min_value=2, max_value=2000),
    )
    def test_pool_invariants(self, fps, frames, cap):
        meta = fs.VideoMeta("v", fps, frames)
        duration = meta.duration_seconds
        if duration == 0:
            with pytest.raises(fs.EmptyPoolError):
                fs.build_pool(meta, cap=cap)
            return
        pool = fs.build_pool(meta, cap=cap)
        seconds = pool.seconds
        assert len(seconds) == min(duration, cap) <= cap
        assert all(b > a for a, b in zip(seconds, seconds[1:]))
        assert 0 <= seconds[0] and seconds[-1] <= duration - 1
        if duration <= cap:
            assert seconds == tuple(range(duration))
        else:
            assert seconds[0] == 0 and seconds[-1] == duration - 1
            assert list(seconds) == ref_even_spacing(duration, cap)
        for s in seconds:
            assert 0 <= fs.frame_index_of_second(meta, s) <= frames - 1


class TestEvenSpacing:
    def test_exact_past_the_float64_range_of_integers(self):
        assert even_spacing(10**20, 3) == (0, 49999999999999999999, 99999999999999999999)

    def test_matches_the_float64_rule_below_two_to_the_40(self, rng):
        # The rule was once trunc(k * float(total - 1) / float(count - 1)) on a
        # float64 grid; below 2**40 both give the same integers.  One pair in
        # twenty draws its count from the whole range; the rest stay small to
        # keep the sweep to seconds.
        pairs = 100_000
        counts = np.where(rng.random(pairs) < 0.05, rng.integers(2, 4001, pairs), rng.integers(2, 65, pairs))
        totals = rng.integers(counts + 1, 2**40)
        for lo in range(0, pairs, 5000):
            count, total = counts[lo : lo + 5000], totals[lo : lo + 5000]
            first = np.repeat(np.cumsum(count) - count, count)
            k = (np.arange(first.size) - first).astype(np.float64)
            grid = k * np.repeat(total - 1, count).astype(np.float64) / np.repeat(count - 1, count).astype(np.float64)
            exact = itertools.chain.from_iterable(map(even_spacing, total.tolist(), count.tolist()))
            assert list(exact) == grid.astype(np.int64).tolist()


class TestCoordinateMaps:
    def test_second_of_position_is_one_based_lookup(self):
        pool = fs.build_pool(fs.VideoMeta("v", 2.0, 10))
        assert fs.second_of_position(pool, 1) == 0
        assert fs.second_of_position(pool, 5) == 4
        with pytest.raises(IndexError):
            fs.second_of_position(pool, 0)
        with pytest.raises(IndexError):
            fs.second_of_position(pool, 6)

    def test_last_position_of_downsampled_pool(self):
        pool = fs.build_pool(fs.VideoMeta("v", 25.0, 30000))
        assert fs.second_of_position(pool, 1000) == 1199

    def test_frame_index_examples(self):
        assert fs.frame_index_of_second(fs.VideoMeta("v", 2.0, 10), 3) == 6
        assert fs.frame_index_of_second(fs.VideoMeta("v", 29.97, 100), 4) == 99
        assert fs.frame_index_of_second(fs.VideoMeta("v", 1.0, 5), 0) == 0

    def test_frame_index_matches_reference(self, rng):
        for _ in range(200):
            fps = float(rng.uniform(0.1, 120.0))
            frames = int(rng.integers(1, 10**6))
            second = int(rng.integers(0, 10**5))
            got = fs.frame_index_of_second(fs.VideoMeta("v", fps, frames), second)
            assert got == ref_frame_index(fps, frames, second)
            assert 0 <= got <= frames - 1


class TestManifest:
    def test_round_trip_is_byte_identical(self, tmp_path):
        pool = fs.build_pool(fs.VideoMeta("clip-7", 23.976, 480000))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        fs.write_pool_manifest(pool, first)
        fs.write_pool_manifest(fs.read_pool_manifest(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_key_order_and_shape(self, tmp_path):
        pool = fs.build_pool(fs.VideoMeta("v", 2.0, 10))
        path = tmp_path / "pool.json"
        fs.write_pool_manifest(pool, path)
        text = path.read_text(encoding="utf-8")
        assert text.index('"video_id"') < text.index('"fps"') < text.index('"total_frames"')
        assert text.index('"total_frames"') < text.index('"cap"') < text.index('"seconds"')
        assert text.endswith("\n") and text.count("\n") == 1

    def test_missing_key_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"video_id":"v","fps":2.0}', encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_pool_manifest(path)

    def test_invalid_json_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_pool_manifest(path)

    @pytest.mark.parametrize(
        "edit",
        [
            # one entry of a 3000 s video's 1000 seconds moved by one
            lambda doc: doc["seconds"].__setitem__(500, doc["seconds"][500] + 1),
            # cap 1 cannot spread over 3000 s, whatever seconds says
            lambda doc: doc.update(cap=1, seconds=[0]),
            # a pool of 10**12 seconds is never built from a five-entry list
            lambda doc: doc.update(total_frames=10**12, cap=10**12, seconds=[0, 1, 2, 3, 4]),
        ],
        ids=["shifted-entry", "cap-one", "geometry-huge"],
    )
    def test_seconds_must_be_the_pool_the_geometry_defines(self, tmp_path, edit):
        path = tmp_path / "pool.json"
        fs.write_pool_manifest(fs.build_pool(fs.VideoMeta("v", 1.0, 3000)), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_pool_manifest(path)

    def test_bool_second_rejected(self, tmp_path):
        # [0, true, 2] == [0, 1, 2] in Python: only the kind rule refuses it
        path = tmp_path / "bad.json"
        path.write_text(
            '{"video_id":"v","fps":1.0,"total_frames":3,"cap":1000,"seconds":[0,true,2]}',
            encoding="utf-8",
        )
        with pytest.raises(fs.FormatError, match="seconds must be integers"):
            fs.read_pool_manifest(path)

    def test_inconsistent_seconds_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"video_id":"v","fps":2.0,"total_frames":10,"cap":1000,"seconds":[0,2,1]}',
            encoding="utf-8",
        )
        with pytest.raises(fs.FormatError):
            fs.read_pool_manifest(path)


def test_pool_is_immutable():
    pool = fs.build_pool(fs.VideoMeta("v", 2.0, 10))
    with pytest.raises(AttributeError):
        pool.seconds = (1, 2)


def test_spacing_never_exceeds_duration_minus_one():
    # trunc toward zero keeps every entry at or below D-1 even at the pinned end
    for duration in (1001, 1200, 99991, 10**6 + 7):
        seconds = ref_even_spacing(duration, 1000)
        assert seconds[-1] == duration - 1
        assert max(seconds) <= duration - 1
        pool = fs.build_pool(fs.VideoMeta("v", 1.0, duration))
        assert list(pool.seconds) == seconds
        assert math.isfinite(duration)
