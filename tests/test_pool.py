"""Candidate pool construction and coordinate alignment."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framesel as fs
from framesel import fileio
from framesel.fileio import all_of_kind
from framesel.pool import _finite, _integral, even_spacing
from reference import ref_even_spacing, ref_frame_index


def str_id(value):
    """A test id: a value whose repr passes 20 characters is named by its digit count."""
    text = repr(value)
    return text if len(text) <= 20 else f"{'-' if value < 0 else ''}int{len(text.lstrip('-'))}digits"


class TestNumberRule:
    """``_finite`` is the one number rule; ``all_of_kind(..., float)`` is its form for JSON literals."""

    @pytest.mark.parametrize(
        ("value", "finite"),
        [
            (0, True), (-0.0, True), (1e308, True), (-1e308, True), (int(1e308), True), (2**1024 - 2**971, True),
            (10**400, False), (-(10**400), False), (2**1024 - 2**970, False), (math.nan, False), (math.inf, False), (-math.inf, False),
        ],
        ids=str_id,
    )
    def test_the_helper_and_the_json_kind_rule_agree_on_exact_numbers(self, value, finite):
        assert _finite(value) is finite
        assert all_of_kind((value,), float) is finite

    @pytest.mark.parametrize("value", [True, False, "0.5", None, b"1", [1.0]], ids=str_id)
    def test_bools_strings_and_none_are_not_numbers(self, value):
        assert not _finite(value)
        assert not all_of_kind((value,), float)

    def test_other_real_types_are_judged_as_float64(self):
        assert _finite(np.float64(0.25)) and _finite(np.int64(-3)) and _finite(Fraction(1, 3))
        assert not _finite(np.float64(np.nan)) and not _finite(np.bool_(True)) and not _finite(Fraction(10**400))

    @pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024, np.int64(7), 2.0, 1e300], ids=str_id)
    def test_integers_of_any_size_are_integral(self, value):
        # The count and position rule is not bounded by the float range.
        assert _integral(value)

    @pytest.mark.parametrize("value", [True, np.bool_(True), 2.5, math.nan, math.inf, "2", None], ids=str_id)
    def test_non_integers_are_not_integral(self, value):
        assert not _integral(value)


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

    @pytest.mark.parametrize("fps", [0.0, -2.0, math.nan, math.inf, 10**400, True, "30", None], ids=str_id)
    def test_fps_follows_the_number_rule(self, fps):
        # inf failed later as an empty pool, True was read as 1 fps and "30" raised a raw TypeError.
        with pytest.raises(fs.ParameterError, match=f"^fps must be positive and finite, got {re.escape(repr(fps))}$"):
            fs.VideoMeta("v", fps, 10)

    @pytest.mark.parametrize("video_id", [5, None, b"v", ("v",)], ids=str_id)
    def test_video_id_follows_the_string_rule(self, video_id):
        # VideoMeta(5, 1.0, 3) was built, and its manifest was then refused by the reader.
        with pytest.raises(fs.ParameterError, match=f"^video_id must be a string, got {re.escape(repr(video_id))}$"):
            fs.VideoMeta(video_id, 1.0, 3)

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

    def test_video_under_one_second_refused(self):
        with pytest.raises(fs.ParameterError, match=r"^video 'v' spans zero whole seconds \(15 frames at 30.0 fps\)$"):
            fs.build_pool(fs.VideoMeta("v", 30.0, 15))

    def test_cap_one_with_longer_video_refused(self):
        with pytest.raises(fs.ParameterError, match="^cannot spread cap=1 over 5 candidate seconds$"):
            fs.build_pool(fs.VideoMeta("v", 1.0, 5), cap=1)

    def test_cap_one_with_one_second_video_is_fine(self):
        assert fs.build_pool(fs.VideoMeta("v", 1.0, 1), cap=1).seconds == (0,)

    def test_duration_equal_to_cap_takes_identity_branch(self):
        pool = fs.build_pool(fs.VideoMeta("v", 1.0, 8), cap=8)
        assert pool.seconds == tuple(range(8))

    def test_cap_below_one_rejected(self):
        with pytest.raises(fs.ParameterError):
            fs.build_pool(fs.VideoMeta("v", 1.0, 5), cap=0)

    @pytest.mark.parametrize(
        ("name", "bad"), [("cap", 0), ("cap", 2.5), ("cap", True), ("total_frames", 0), ("total_frames", 100.5), ("total_frames", True)]
    )
    def test_counts_follow_the_count_rule(self, name, bad):
        # cap=2.5 raised a raw TypeError, total_frames=100.5 was truncated, and True was read as 1.
        counts = {"total_frames": 100, "cap": 1000, name: bad}
        with pytest.raises(fs.ParameterError, match=f"^{re.escape(f'{name} must be an integer >= 1, got {bad!r}')}$"):
            fs.build_pool(fs.VideoMeta("v", 1.0, counts["total_frames"]), cap=counts["cap"])

    def test_integral_counts_are_stored_as_ints(self):
        # cap=2.0 raised a raw TypeError.
        pool = fs.build_pool(fs.VideoMeta("v", 1.0, 100.0), cap=2.0)
        assert (pool.seconds, type(pool.cap), type(pool.meta.total_frames)) == ((0, 99), int, int)
        assert pool == fs.build_pool(fs.VideoMeta("v", 1.0, np.int64(100)), cap=np.int64(2))

    def test_a_huge_cap_keeps_every_second(self):
        for cap in (10**400, float(2**1000)):
            assert fs.build_pool(fs.VideoMeta("v", 1.0, 5), cap=cap).seconds == (0, 1, 2, 3, 4)

    def test_pool_past_the_embedding_row_limit_rejected(self):
        # A .fsel row count is a u32; the limit counts candidates, not seconds.
        # 10**12 rather than 2**32: without the check, its tuple fails to
        # allocate at once instead of filling memory.
        long = fs.VideoMeta("v", 1.0, 10**12)
        with pytest.raises(fs.ParameterError, match="4294967295"):
            fs.build_pool(long, cap=10**12)
        assert fs.build_pool(long, cap=3).seconds == (0, (10**12 - 1) // 2, 10**12 - 1)
        assert fs.build_pool(fs.VideoMeta("v", 1.0, 3), cap=10**12).seconds == (0, 1, 2)

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
            with pytest.raises(fs.ParameterError, match="spans zero whole seconds"):
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

    def test_second_of_position_follows_the_integer_rule(self):
        # A bool was read as position 1 and 2.5 raised a TypeError.
        pool = fs.build_pool(fs.VideoMeta("v", 2.0, 10))
        for bad in (True, False, 2.5, float("nan"), float("inf"), "2"):
            with pytest.raises(fs.ParameterError, match="integer"):
                fs.second_of_position(pool, bad)
        assert fs.second_of_position(pool, 2.0) == fs.second_of_position(pool, np.int64(2)) == 1
        for outside in (0.0, 6.0, -1):
            with pytest.raises(IndexError):
                fs.second_of_position(pool, outside)

    def test_second_of_position_speaks_as_the_evaluators(self):
        pool = fs.build_pool(fs.VideoMeta("v", 2.0, 10))
        with pytest.raises(fs.ParameterError, match=r"^positions must be integers, got 2\.5$"):
            fs.second_of_position(pool, 2.5)
        with pytest.raises(IndexError, match=r"^positions must lie in 1\.\.5, got range \[6, 6\]$"):
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

    @pytest.mark.parametrize("video_id", ["", "clip 7", "caf\u00e9/\u6620\u50cf", np.str_("clip")])
    def test_every_video_meta_reads_back_as_built(self, tmp_path, video_id):
        pool = fs.build_pool(fs.VideoMeta(video_id, 1.0, 3))
        path = tmp_path / "pool.json"
        fs.write_pool_manifest(pool, path)
        assert fs.read_pool_manifest(path) == pool

    def test_key_order_and_shape(self, tmp_path):
        pool = fs.build_pool(fs.VideoMeta("v", 2.0, 10))
        path = tmp_path / "pool.json"
        fs.write_pool_manifest(pool, path)
        text = path.read_text(encoding="utf-8")
        assert text.index('"video_id"') < text.index('"fps"') < text.index('"total_frames"')
        assert text.index('"total_frames"') < text.index('"cap"') < text.index('"seconds"')
        assert text.endswith("\n") and text.count("\n") == 1

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "pool.json"
        fs.write_pool_manifest(fs.build_pool(fs.VideoMeta("v", 1.0, 3)), path)
        before = path.read_bytes()

        def refuse(message):
            def call(*args):
                raise OSError(message)

            return call

        monkeypatch.setattr(fileio.os, "replace", refuse("rename refused"))
        with pytest.raises(OSError, match="^rename refused$"):
            fs.write_pool_manifest(fs.build_pool(fs.VideoMeta("w", 1.0, 5)), path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before
        # When removing the temporary file fails too, the rename's error
        # still propagates and the temporary file is left behind.
        monkeypatch.setattr(fileio.os, "unlink", refuse("unlink refused"))
        with pytest.raises(OSError, match="^rename refused$"):
            fs.write_pool_manifest(fs.build_pool(fs.VideoMeta("w", 1.0, 5)), path)
        (left,) = tmp_path.glob("pool.json.*.tmp")
        assert sorted(tmp_path.iterdir()) == sorted([path, left])
        assert path.read_bytes() == before


def test_pool_is_immutable():
    pool = fs.build_pool(fs.VideoMeta("v", 2.0, 10))
    with pytest.raises(AttributeError):
        pool.seconds = (1, 2)

