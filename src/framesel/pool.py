"""1 FPS candidate pool construction and index alignment.

A video with ``total_frames`` decoded frames at ``fps`` frames per second
spans ``floor(total_frames / fps)`` whole seconds; each whole second is a
selection candidate.  When there are more candidate seconds than ``cap``
(default 1000) the pool is thinned to ``cap`` evenly spaced seconds, computed
in exact integer arithmetic, that always include the first and last second.
The seconds are never passed in: ``CandidatePool`` derives them from the
video's geometry and ``cap``, and a manifest's list must match them.

Three coordinate systems stay aligned throughout the pipeline:

* position -- 1-based index into the pool, which is also the row index of
  the per-candidate embedding matrices;
* second   -- integer second in the source video;
* frame    -- decoded frame number, ``floor(second * fps)`` clamped to range.

Alignment is only as exact as the supplied ``fps``: if a container reports
an averaged rate, the frame indices inherit that approximation.  All types
here are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegenerateSpacingError, EmptyPoolError, FormatError, ParameterError
from .fileio import read_json, require_key, write_json

DEFAULT_CAP = 1000

# An embedding file's row count is a u32: no file can match a larger pool.
MAX_POOL_SIZE = 2**32 - 1


@dataclass(frozen=True)
class VideoMeta:
    """Identity and decode geometry of one video."""

    video_id: str
    fps: float
    total_frames: int

    def __post_init__(self) -> None:
        if not self.fps > 0:
            raise ParameterError(f"fps must be positive, got {self.fps}")
        if self.total_frames < 1:
            raise ParameterError(f"total_frames must be >= 1, got {self.total_frames}")
        try:
            finite = math.isfinite(self.total_frames / self.fps)
        except OverflowError:  # total_frames beyond the float range
            finite = False
        if not finite:
            raise ParameterError(f"total_frames / fps must be a finite number of seconds, got fps {self.fps}")

    @property
    def duration_seconds(self) -> int:
        return math.floor(self.total_frames / self.fps)


@dataclass(frozen=True)
class CandidatePool:
    """Candidate seconds of one video: ``even_spacing(duration, cap)``.

    ``seconds`` is derived from ``meta`` and ``cap`` on construction and is
    never passed in, so every pool holds exactly the seconds its geometry
    defines.

    Raises:
        EmptyPoolError: the video spans zero whole seconds.
        DegenerateSpacingError: ``cap == 1`` but more than one second exists.
        ParameterError: ``cap < 1`` or more than ``MAX_POOL_SIZE`` candidates.
    """

    meta: VideoMeta
    cap: int = DEFAULT_CAP
    seconds: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ParameterError(f"cap must be >= 1, got {self.cap}")
        duration = self.meta.duration_seconds
        if duration == 0:
            raise EmptyPoolError(
                f"video {self.meta.video_id!r} spans zero whole seconds "
                f"({self.meta.total_frames} frames at {self.meta.fps} fps)"
            )
        if self.cap == 1 and duration > 1:
            raise DegenerateSpacingError(f"cannot spread cap=1 over {duration} candidate seconds")
        if min(duration, self.cap) > MAX_POOL_SIZE:
            raise ParameterError(f"more than {MAX_POOL_SIZE} candidates, the most rows an embedding file holds")
        object.__setattr__(self, "seconds", even_spacing(duration, self.cap))

    @property
    def n(self) -> int:
        return len(self.seconds)


def build_pool(meta: VideoMeta, cap: int = DEFAULT_CAP) -> CandidatePool:
    """The candidate pool of ``meta``, thinned to at most ``cap`` seconds."""
    return CandidatePool(meta=meta, cap=cap)


def even_spacing(total: int, count: int) -> tuple[int, ...]:
    """Pick ``min(count, total)`` of the indices ``0 .. total-1``.

    Entry ``k`` is ``k * (total - 1) // (count - 1)`` in exact integers, so
    the ends are 0 and ``total - 1`` at any ``total``; the pool cap and the
    uniform-sampling baseline share this rule.
    """
    if count >= total:
        return tuple(range(total))
    if count == 1:
        return (0,)
    gaps = count - 1
    # The range steps through the numerators k * (total - 1).
    return tuple(step // gaps for step in range(0, count * (total - 1), total - 1))


def second_of_position(pool: CandidatePool, position: int) -> int:
    """Map a 1-based pool position to its integer second."""
    if not 1 <= position <= pool.n:
        raise IndexError(f"position {position} outside 1..{pool.n}")
    return pool.seconds[position - 1]


def frame_index_of_second(meta: VideoMeta, second: int) -> int:
    """Map an integer second to its decoded frame index, clamped into range."""
    raw = math.floor(second * meta.fps)
    return min(max(raw, 0), meta.total_frames - 1)


def pool_manifest_doc(pool: CandidatePool) -> dict:
    """The manifest document for ``pool``, keys in on-disk order."""
    return {
        "video_id": pool.meta.video_id,
        "fps": float(pool.meta.fps),
        "total_frames": int(pool.meta.total_frames),
        "cap": int(pool.cap),
        "seconds": [int(s) for s in pool.seconds],
    }


def write_pool_manifest(pool: CandidatePool, path) -> None:
    write_json(path, pool_manifest_doc(pool))


def read_pool_manifest(path) -> CandidatePool:
    """Load a pool manifest whose ``seconds`` match its geometry.

    The pool is rebuilt from ``fps``, ``total_frames`` and ``cap``; the
    file's ``seconds`` must equal the rebuilt list.  Its length is checked
    first, so the rebuilt pool is never larger than the file.  Extra keys
    are permitted so extended manifests (with embedding paths) can be read
    by the same function.
    """
    doc = read_json(path)
    where = str(path)
    video_id = require_key(doc, "video_id", str, where)
    fps = require_key(doc, "fps", float, where)
    total_frames = require_key(doc, "total_frames", int, where)
    cap = require_key(doc, "cap", int, where)
    seconds = require_key(doc, "seconds", list, where, of=int)
    try:
        meta = VideoMeta(video_id=video_id, fps=fps, total_frames=total_frames)
        expected = min(meta.duration_seconds, cap)
        if len(seconds) != expected:
            raise FormatError(f"{where}: seconds lists {len(seconds)} candidates where fps, total_frames and cap give {expected}")
        pool = CandidatePool(meta=meta, cap=cap)
    except ParameterError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    if list(pool.seconds) != seconds:
        raise FormatError(f"{where}: seconds differ from the pool that fps, total_frames and cap define")
    return pool
