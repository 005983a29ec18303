"""
Candidate pools: from raw video geometry to a bounded frame list
================================================================

A video is described by its id, frame rate and total decoded frames.
Selection never looks at every frame; it works over whole seconds,
thinned to a fixed cap so a three-hour video costs the same as a
twenty-minute one.
"""

import framesel as fs

# A short clip: 48 seconds at 24 fps. Everything fits, so the pool is
# just every whole second.
clip = fs.VideoMeta(video_id="clip", fps=24.0, total_frames=1152)
pool = fs.build_pool(clip)
print(f"{clip.video_id}: duration {clip.duration_seconds}s -> {pool.n} candidates")
print("first candidates:", pool.seconds[:8])

# A long movie: two hours at 23.976 fps. Now the duration exceeds the
# default cap of 1000, so seconds are spread evenly across the runtime.
movie = fs.VideoMeta(video_id="movie", fps=23.976, total_frames=207_360)
pool = fs.build_pool(movie)
print(f"\n{movie.video_id}: duration {movie.duration_seconds}s -> {pool.n} candidates")
print("first candidates:", pool.seconds[:6])
print("last candidates: ", pool.seconds[-6:])
print("endpoints pinned:", pool.seconds[0] == 0 and pool.seconds[-1] == movie.duration_seconds - 1)

# Three aligned coordinate systems: a 1-based pool position, the integer
# second it stands for, and the decoded frame index floor(second * fps).
print("\nposition -> second -> frame index")
for position in (1, 250, 500, 1000):
    second = fs.second_of_position(pool, position)
    frame = fs.frame_index_of_second(movie, second)
    print(f"  {position:4d} -> {second:5d}s -> frame {frame}")

# The manifest is a single JSON object; writing it twice produces the
# same bytes, which keeps pipelines diffable.
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "pool.json"
    fs.write_pool_manifest(pool, path)
    text = path.read_text()
    print(f"\nmanifest is {len(text)} bytes, starts with: {text[:60]}...")
    again = fs.read_pool_manifest(path)
    print("round trip preserves every second:", again.seconds == pool.seconds)

# Degenerate inputs are rejected up front rather than producing an
# empty or unsorted pool.
try:
    fs.build_pool(fs.VideoMeta(video_id="stub", fps=30.0, total_frames=10))
except fs.ParameterError as exc:
    print("\nsub-second video rejected:", exc)
