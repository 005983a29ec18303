"""Seeded inputs for the benchmark workloads.

Everything the program reads during a run is written here, before any
timing starts: pool manifests, ``.fsel`` embedding files, a question
classifier trained with ``train_classifier`` and a routing table fitted
with ``fit_routing`` from a generated accuracy CSV.  The same seed always
writes the same bytes.

Two row regimes are generated:

* ``iid`` -- independent uniform directions on the sphere;
* ``corr`` -- "video-like" rows: within a scene the rows follow a random
  walk around the scene's anchor direction, and a new scene (a fresh
  anchor) starts every ~60 rows.

The generator also keeps its own float32 copy of every array it wrote, so
the output checks can recompute objectives without reading the files back
through the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import framesel as fs

QUESTION_TYPES = (
    "plotQA",
    "needle",
    "ego",
    "count",
    "order",
    "anomaly_reco",
    "topic_reasoning",
)

# Type -> preset the generated accuracy table makes best; all four presets
# appear, and only ``needle`` routes to the cheap relevance_only preset.
ROUTED_PRESET = {
    "plotQA": "coverage_oriented",
    "needle": "relevance_only",
    "ego": "relevance_oriented",
    "count": "coverage_only",
    "order": "coverage_oriented",
    "anomaly_reco": "relevance_oriented",
    "topic_reasoning": "coverage_only",
}

TEMPLATES = {
    "plotQA": (
        "why does the {person} leave the {place} in the story",
        "what does the {person} want at the end of the plot",
        "how does the story of the {person} and the {obj} end",
    ),
    "needle": (
        "what colour is the {obj} shown for one instant",
        "which word is written on the {obj} in that exact moment",
        "what is the brand of the {obj} that briefly appears",
    ),
    "ego": (
        "where did i put the {obj} after leaving the {place}",
        "what did i hold in my hand near the {place}",
        "which {obj} did i pick up with my left hand",
    ),
    "count": (
        "how many {obj}s appear in total",
        "how many times does the {person} {verb}",
        "count the number of {obj}s in the {place}",
    ),
    "order": (
        "in which order does the {person} visit the {place} and the {place2}",
        "what happens first the {person} {verb}s or the {obj} falls",
        "which comes before the {obj} scene in the sequence",
    ),
    "anomaly_reco": (
        "what is unusual about the {obj} in the {place}",
        "which event looks abnormal for a {place}",
        "does anything strange happen to the {person}",
    ),
    "topic_reasoning": (
        "what is this video mainly about",
        "what is the overall theme of the {place} scenes",
        "which topic connects the {person} and the {obj}",
    ),
}

FILLERS = {
    "obj": ("cup", "ball", "car", "book", "phone", "bag", "lamp", "chair", "key", "bottle"),
    "person": ("man", "woman", "child", "chef", "cyclist", "teacher", "dog owner"),
    "place": ("kitchen", "street", "office", "garden", "station", "shop", "beach"),
    "place2": ("bridge", "library", "market", "park", "harbour"),
    "verb": ("jump", "wave", "run", "sit", "laugh", "turn"),
}

TRAIN_PER_TYPE = 40
TRAIN_EPOCHS = 200
SCENE_ROWS = (40, 81)  # scene length range; mean ~60 rows
WALK_STEP = 0.15  # norm of one within-scene step, relative to a unit anchor
FPS_CHOICES = (23.976, 24.0, 25.0, 29.97, 30.0)


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload; every array it needs comes from the seed."""

    regime: str  # "corr" or "iid"
    pool_sizes: tuple[int, ...]  # one video per entry
    cap: int
    questions_per_video: int
    k: int
    d_s: int
    d_d: int
    preset: str  # a preset name, or "auto" to route each question
    engine: str | None  # None keeps the CLI default


WORKLOADS = {
    # One question per CLI call over many default-cap videos: manifest
    # parsing, embedding reads, similarity and routing dominate.
    "qa-burst": WorkloadSpec(
        regime="corr",
        pool_sizes=tuple(int(round(v)) for v in np.linspace(400, 1000, 12)),
        cap=fs.DEFAULT_CAP,
        questions_per_video=10,
        k=8,
        d_s=512,
        d_d=768,
        preset="auto",
        engine=None,
    ),
    # The default engine on realistic video: greedy's N x N passes dominate.
    "greedy-plain-corr": WorkloadSpec(
        regime="corr",
        pool_sizes=(2000,) * 4,
        cap=2000,
        questions_per_video=1,
        k=128,
        d_s=512,
        d_d=768,
        preset="coverage_oriented",
        engine="plain",
    ),
    # Lazy greedy on i.i.d. rows, its worst case for pruning.
    "greedy-lazy-iid": WorkloadSpec(
        regime="iid",
        pool_sizes=(2000,) * 4,
        cap=2000,
        questions_per_video=2,
        k=128,
        d_s=512,
        d_d=768,
        preset="coverage_oriented",
        engine="lazy",
    ),
}


@dataclass
class Video:
    video_id: str
    fps: float
    total_frames: int
    seconds: tuple[int, ...]
    relevance: np.ndarray  # float32, as written
    semantic: np.ndarray  # float32, as written


@dataclass
class Request:
    index: int
    video_id: str
    question: str | None
    query: np.ndarray  # float32 1 x d_s, as written
    argv: list[str]  # CLI arguments without --out


@dataclass
class Inputs:
    spec: WorkloadSpec
    videos: dict[str, Video]
    requests: list[Request]
    model: object | None = None  # fs.QuestionTypeModel for routed workloads
    routing: object | None = None  # fs.RoutingTable for routed workloads


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _scene_bounds(rng, n: int) -> list[tuple[int, int]]:
    bounds, start = [], 0
    while start < n:
        stop = min(n, start + int(rng.integers(*SCENE_ROWS)))
        bounds.append((start, stop))
        start = stop
    return bounds


def _rows(rng, regime: str, scenes, n: int, dim: int) -> np.ndarray:
    if regime == "iid":
        return _unit(rng.standard_normal((n, dim))).astype(np.float32)
    rows = np.empty((n, dim))
    for start, stop in scenes:
        anchor = _unit(rng.standard_normal(dim))
        steps = rng.standard_normal((stop - start, dim)) * (WALK_STEP / math.sqrt(dim))
        rows[start:stop] = anchor + np.cumsum(steps, axis=0)
    return _unit(rows).astype(np.float32)


def _video_geometry(rng, n: int, cap: int) -> tuple[float, int]:
    # Pools below the cap hold every whole second, so the duration must be
    # exactly n seconds; a pool at the cap comes from a longer video thinned
    # to ``cap`` candidates.
    fps = float(rng.choice(FPS_CHOICES))
    duration = n if n < cap else int(rng.integers(cap, 2 * cap + 1))
    total = math.ceil(duration * fps) + int(rng.integers(0, int(fps) - 1))
    return fps, total


def _question(rng, qtype: str) -> str:
    template = TEMPLATES[qtype][int(rng.integers(len(TEMPLATES[qtype])))]
    fills = {key: str(rng.choice(words)) for key, words in FILLERS.items()}
    return template.format(**fills)


def _write_router(rng, out: Path) -> tuple[object, object, Path, Path]:
    """Train the question model and fit the routing table; returns both and their paths."""
    lines = []
    for qtype in QUESTION_TYPES:
        for _ in range(TRAIN_PER_TYPE):
            lines.append(f"{qtype}\t{_question(rng, qtype)}")
    order = rng.permutation(len(lines))
    train_path = out / "train.tsv"
    train_path.write_text("".join(lines[i] + "\n" for i in order), encoding="utf-8")
    model = fs.train_classifier(fs.read_training_examples(train_path), epochs=TRAIN_EPOCHS)
    model_path = out / "model.json"
    fs.write_model(model, model_path)

    rows = ["type," + ",".join(fs.PRESET_ORDER)]
    for qtype in QUESTION_TYPES:
        acc = {name: float(rng.uniform(0.30, 0.60)) for name in fs.PRESET_ORDER}
        acc[ROUTED_PRESET[qtype]] = max(acc.values()) + float(rng.uniform(0.02, 0.10))
        rows.append(qtype + "," + ",".join(f"{acc[name]:.3f}" for name in fs.PRESET_ORDER))
    csv_path = out / "accuracy.csv"
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    table = fs.fit_routing(fs.read_accuracy_table(csv_path))
    routing_path = out / "routing.json"
    fs.write_routing_table(table, routing_path)
    return model, table, model_path, routing_path


def _question_types(rng, per_video: int) -> list[str]:
    # Every video gets each type once, topped up with seeded extra types,
    # so the preset mix (and with it the cost mix) barely moves with the seed.
    extra = rng.choice(len(QUESTION_TYPES), size=max(0, per_video - len(QUESTION_TYPES)), replace=False)
    types = list(QUESTION_TYPES[: min(per_video, len(QUESTION_TYPES))])
    return types + [QUESTION_TYPES[i] for i in extra]


def generate(workload: str, seed: int, out: Path) -> Inputs:
    """Write every input file of ``workload`` under ``out``; same seed, same bytes."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(spec=spec, videos={}, requests=[])
    routed = spec.preset == "auto"
    if routed:
        inputs.model, inputs.routing, model_path, routing_path = _write_router(rng, out)

    pending = []
    for v, n in enumerate(rng.permutation(spec.pool_sizes)):
        n = int(n)
        video_id = f"v{v:02d}"
        fps, total = _video_geometry(rng, n, spec.cap)
        pool = fs.build_pool(fs.VideoMeta(video_id=video_id, fps=fps, total_frames=total), cap=spec.cap)
        if pool.n != n:
            raise RuntimeError(f"{video_id}: generated pool has {pool.n} candidates, wanted {n}")
        scenes = _scene_bounds(rng, n)
        video = Video(
            video_id=video_id,
            fps=fps,
            total_frames=total,
            seconds=pool.seconds,
            relevance=_rows(rng, spec.regime, scenes, n, spec.d_s),
            semantic=_rows(rng, spec.regime, scenes, n, spec.d_d),
        )
        inputs.videos[video_id] = video
        fs.write_embedding_file(out / f"{video_id}.rel.fsel", video.relevance)
        fs.write_embedding_file(out / f"{video_id}.sem.fsel", video.semantic)
        qtypes = _question_types(rng, spec.questions_per_video) if routed else [None] * spec.questions_per_video
        for q, qtype in enumerate(qtypes):
            # A query close to one seeded frame, so relevance is peaked.
            anchor = video.relevance[int(rng.integers(n))].astype(np.float64)
            query = _unit(anchor + rng.standard_normal(spec.d_s) / math.sqrt(spec.d_s))[None, :].astype(np.float32)
            stem = f"{video_id}.q{q:02d}"
            fs.write_embedding_file(out / f"{stem}.query.fsel", query)
            manifest = out / f"{stem}.manifest.json"
            fs.write_embedding_manifest(pool, f"{video_id}.rel.fsel", f"{video_id}.sem.fsel", f"{stem}.query.fsel", manifest)
            question = _question(rng, qtype) if routed else None
            pending.append((video_id, str(manifest), question, query))

    for i in rng.permutation(len(pending)):
        video_id, manifest, question, query = pending[int(i)]
        argv = ["select", "--manifest", manifest, "--k", str(spec.k)]
        if routed:
            argv += ["--preset", "auto", "--model", str(model_path), "--routing", str(routing_path), "--question", question]
        else:
            argv += ["--preset", spec.preset]
        if spec.engine is not None:
            argv += ["--engine", spec.engine]
        inputs.requests.append(Request(len(inputs.requests), video_id, question, query, argv))
    return inputs
