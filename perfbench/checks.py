"""Output checks, run after the timed loop on every output the run produced.

Each selection document is checked against the benchmark's own copy of
the inputs (the float32 arrays the generator wrote), never against files
read back through the program:

* min(K, N) positions, strictly increasing, within 1..N;
* ``seconds`` and ``frame_indices`` agree with the generated pool;
* gains are non-increasing, one per position;
* the preset is the one the question routes to (or the named preset),
  and ``objective`` equals ``objective_value`` recomputed here;
* greedy scores at least the uniform spacing of the same size;
* the bytes are canonical JSON.

Per request, a run also fails on a non-zero exit, on any stderr output,
on a rerun that wrote different bytes, and, where digests are pinned for
this seed and BLAS build, on a digest that differs from the pinned one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

import framesel as fs

from gen import Inputs, Request

REL_TOL = 1e-9


def _unit64(rows: np.ndarray) -> np.ndarray:
    m = np.asarray(rows, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def uniform_positions(n: int, k: int) -> list[int]:
    """Truncated even spacing of ``k`` positions over 1..n."""
    if k >= n:
        return list(range(1, n + 1))
    if k == 1:
        return [1]
    return [int(v) + 1 for v in np.trunc(np.arange(k, dtype=np.float64) * float(n - 1) / float(k - 1))]


@dataclass
class Checker:
    inputs: Inputs
    _sim: dict[str, np.ndarray] = field(default_factory=dict)

    def _similarity(self, video_id: str) -> np.ndarray:
        if video_id not in self._sim:
            self._sim.clear()  # requests are checked grouped by video
            sem = _unit64(self.inputs.videos[video_id].semantic)
            self._sim[video_id] = sem @ sem.T
        return self._sim[video_id]

    def expected_preset(self, request: Request) -> str:
        if self.inputs.spec.preset == "auto":
            return fs.route(self.inputs.model, self.inputs.routing, request.question).name
        return self.inputs.spec.preset

    def problems(self, request: Request, data: bytes) -> list[str]:
        """Everything wrong with ``data`` as the output of ``request``."""
        try:
            doc = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return [f"not JSON: {exc}"]
        if not isinstance(doc, dict):
            return ["not a JSON object"]
        try:
            return self._document_problems(request, doc, data)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed document: {exc!r}"]

    def _document_problems(self, request: Request, doc: dict, data: bytes) -> list[str]:
        video = self.inputs.videos[request.video_id]
        spec = self.inputs.spec
        n = len(video.seconds)
        steps = min(spec.k, n)
        out: list[str] = []
        if (json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8") != data:
            out.append("not canonical JSON")
        if doc["video_id"] != video.video_id or doc["budget"] != spec.k or doc["coverage_normalized"] is not False:
            out.append("video_id, budget or coverage_normalized differ from the request")
        positions = doc["positions"]
        if len(positions) != steps:
            out.append(f"{len(positions)} positions, expected {steps}")
        if not all(isinstance(p, int) and 1 <= p <= n for p in positions):
            out.append(f"positions outside 1..{n}")
            return out
        if any(b <= a for a, b in zip(positions, positions[1:])):
            out.append("positions not strictly increasing")
        seconds = [video.seconds[p - 1] for p in positions]
        if doc["seconds"] != seconds:
            out.append("seconds disagree with the pool")
        frames = [min(max(math.floor(s * video.fps), 0), video.total_frames - 1) for s in seconds]
        if doc["frame_indices"] != frames:
            out.append("frame_indices disagree with the pool")
        gains = doc["gains"]
        if len(gains) != steps or any(b > a for a, b in zip(gains, gains[1:])):
            out.append("gains are not one non-increasing value per position")

        name = doc["preset"]["name"]
        if name != self.expected_preset(request):
            out.append(f"preset {name}, expected {self.expected_preset(request)}")
            return out
        preset = fs.make_preset(name, 0.5)
        if doc["preset"]["alpha"] != preset.alpha or doc["preset"]["beta"] != preset.beta:
            out.append("preset weights differ from the named preset")
        r = np.maximum(_unit64(video.relevance) @ _unit64(request.query)[0], 0.0)
        sim = self._similarity(video.video_id)
        objective = fs.objective_value(positions, r, sim, preset)
        if not _close(doc["objective"], objective):
            out.append(f"objective {doc['objective']!r}, recomputed {objective!r}")
        uniform = fs.objective_value(uniform_positions(n, steps), r, sim, preset)
        if doc["objective"] < uniform and not _close(doc["objective"], uniform):
            out.append(f"greedy objective {doc['objective']!r} below uniform {uniform!r}")
        return out


def failed_samples(inputs: Inputs, samples, outputs: dict[int, bytes], pinned: list[str] | None) -> tuple[int, list[str]]:
    """Count failed requests among ``samples`` and describe the first few.

    ``samples`` holds (request index, ms, exit code, stderr, sha256, ...) rows;
    ``outputs`` the last bytes each request index wrote; ``pinned`` the
    expected sha256 per request index, or None where no digest is pinned.
    """
    checker = Checker(inputs)
    verdict: dict[int, list[str]] = {}
    for index in sorted(outputs, key=lambda i: inputs.requests[i].video_id):
        data = outputs[index]
        problems = checker.problems(inputs.requests[index], data)
        digest = hashlib.sha256(data).hexdigest()
        if pinned is not None and pinned[index] != digest:
            problems.append(f"sha256 {digest} differs from the pinned {pinned[index]}")
        verdict[index] = problems
    failed, notes = 0, []
    for index, _ms, code, stderr, digest, *_ in samples:
        problems = list(verdict.get(index, ["no output written"]))
        if code != 0:
            problems.append(f"exit code {code}")
        if stderr:
            problems.append(f"stderr: {stderr.strip()[:200]}")
        if index in outputs and digest != hashlib.sha256(outputs[index]).hexdigest():
            problems.append("a rerun wrote different bytes")
        if problems:
            failed += 1
            if len(notes) < 5:
                notes.append(f"request {index}: " + "; ".join(problems))
    return failed, notes
