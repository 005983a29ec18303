"""The golden corpus: CLI runs whose exit codes and output digests are pinned in ``golden.json``.

    python tests/golden.py           # replay the corpus; print each run that moved
    python tests/golden.py --repin   # rewrite golden.json's pins; print each run that moved

A run is one argv of ``corpus_argvs()``, run in-process through
``conftest.run_checked`` on the inputs that ``write_inputs`` writes:
seeded scene-walk pools of 9, 300 and 1000 candidates, and the routing
inputs.  Its entry holds the argv, the exit code, and the sha256 of stdout
and of the ``--out`` file (null when none is written).  The input
directory is written ``{tmp}`` in argvs and in stdout.

Runs that do float arithmetic give digests that may differ on another BLAS
build or thread count, so the corpus pins them under one key: the OpenBLAS
config and thread count, read as ``perfbench/run.py`` reads them.  Under
another key those digests are not checked.  The BLAS-free runs (``pool``,
``fit-routing``, ``route --type`` and every error exit) and every exit code
are checked on any machine.  Every re-pin is listed in ``CHANGES.md`` with
its reason.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import shlex
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import framesel as fs  # noqa: E402
from conftest import run_checked, scene_video, write_fixture_manifest, write_routing_inputs  # noqa: E402

PATH = HERE / "golden.json"
TMP = "{tmp}"
# Pool directory -> (seed, N) of its scene-walk video.
POOLS = {"n9": (1, 9), "n300": (2, 300), "n1000": (3, 1000)}
FLAGS = ([], ["--normalize-coverage"], ["--lambda", "0.25"], ["--relevance-mode", "zscore_relu_maxnorm"])
OUT = ["--out", f"{TMP}/out.json"]
ROUTING = ["--routing", f"{TMP}/routing.json"]
QUESTIONS = (
    ["--model", f"{TMP}/model.json", "--question", "how many items appear"],
    ["--model", f"{TMP}/model.json", "--question", "find the exact moment"],
)
TYPES = (["--type", "count"], ["--type", "needle"], ["--type", "ego"])  # ego is unmapped: exit 3


def write_inputs(directory: Path) -> None:
    """Write every file a corpus argv reads: ``<pool>/manifest.json`` with its ``.fsel`` files, and the routing inputs."""
    for name, (seed, n) in POOLS.items():
        (directory / name).mkdir()
        write_fixture_manifest(directory / name, *scene_video(seed, n), video_id=name)
    write_routing_inputs(directory)


def corpus_argvs() -> list[list[str]]:
    """Every run of the corpus, in its order."""
    argvs = []
    for name, (_, n) in POOLS.items():
        manifest = ["--manifest", f"{TMP}/{name}/manifest.json"]
        for command in ("select", "compare"):
            for preset in fs.PRESET_NAMES:
                for k in (1, 8, 32, n + 5):
                    argvs += [[command, *manifest, "--preset", preset, "--k", str(k), *flags, *OUT] for flags in FLAGS]
            argvs += [[command, *manifest, "--preset", "auto", *ROUTING, *how] for how in (*QUESTIONS, *TYPES)]
    argvs += [
        ["pool", "--fps", "1", "--frames", "9"],
        ["pool", "--fps", "30", "--frames", "54000", "--video-id", "clip"],
        ["pool", "--fps", "2.5", "--frames", "101", "--cap", "16", *OUT],
        ["pool", "--fps", "30", "--frames", "15"],
        ["oracle", "--trials", "20", "--n", "8", "--k", "3"],
        ["oracle", "--trials", "10", "--n", "10", "--k", "4", "--preset", "coverage_oriented", "--lambda", "0.25",
         "--seed", "7", *OUT],
        ["props", "--trials", "20"],
        ["props", "--trials", "20", "--seed", "3", *OUT],
        *(["route", *ROUTING, *how] for how in (*QUESTIONS, *TYPES)),
        ["route", *ROUTING, *TYPES[1], "--lambda", "0.25", *OUT],
        ["fit-routing", "--accuracy", f"{TMP}/acc.csv"],
        ["fit-routing", "--accuracy", f"{TMP}/acc.csv", *OUT],
        ["train-classifier", "--data", f"{TMP}/train.tsv"],
        ["train-classifier", "--data", f"{TMP}/train.tsv", "--epochs", "3", "--learning-rate", "0.5", *OUT],
        ["train-classifier", "--data", f"{TMP}/train.tsv", "--types", "needle,count"],
    ]
    return argvs


def named_inputs(argv) -> list[str]:
    """The ``{tmp}`` files an argv reads: each ``{tmp}/`` argument but the ``--out`` target."""
    return [arg[len(TMP) + 1 :] for i, arg in enumerate(argv) if arg.startswith(TMP + "/") and argv[i - 1] != "--out"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(directory: Path, argvs) -> list[dict]:
    """One entry per argv, run on the inputs in ``directory``."""
    out = directory / "out.json"
    runs = []
    for argv in argvs:
        code, stdout, _ = run_checked([arg.replace(TMP, str(directory)) for arg in argv])
        written = sha256(out.read_bytes()) if out.exists() else None
        out.unlink(missing_ok=True)
        runs.append({"argv": argv, "code": code, "stdout": sha256(stdout.replace(str(directory), TMP).encode()), "out": written})
    return runs


def blas_key() -> dict:
    """The pin key of float-bearing digests: the OpenBLAS config and thread count of this process.

    They are read by ``perfbench/run.py``'s own ``_blas``, so the corpus and
    the benchmark's pins name a BLAS build alike.
    """
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE.parent / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    blas = run._blas()
    return {"config": blas["config"], "threads": blas["threads"]}


def blas_free(entry: dict) -> bool:
    """Whether a run's digests hold on any BLAS build: it calls no BLAS routine, or exits with an error."""
    argv = entry["argv"]
    return entry["code"] != 0 or argv[0] in ("pool", "fit-routing") or (argv[0] == "route" and "--type" in argv)


def dumps(corpus: dict) -> str:
    """``golden.json``'s canonical text: the pin key, then one run per line with its keys in a fixed order."""
    runs = ",\n".join(json.dumps({key: run[key] for key in ("argv", "code", "stdout", "out")}) for run in corpus["runs"])
    return f'{{"blas": {json.dumps(corpus["blas"])}, "runs": [\n{runs}\n]}}\n'


def differences(pinned: list[dict], replayed: list[dict], float_digests: bool = True) -> list[tuple[dict, dict]]:
    """(pinned, replayed) entries of each run whose exit code or a compared digest differs; entries pair by argv.

    A float-bearing digest is compared only with ``float_digests``, that is
    when both were made under the same BLAS key.
    """
    by_argv = {tuple(entry["argv"]): entry for entry in pinned}
    moved = []
    for new in replayed:
        old = by_argv.get(tuple(new["argv"]), dict(new, code=None, stdout=None, out=None))
        compared = float_digests or blas_free(old)
        if old["code"] != new["code"] or compared and (old["stdout"], old["out"]) != (new["stdout"], new["out"]):
            moved.append((old, new))
    return moved


def describe(old: dict, new: dict) -> str:
    """One moved run: its argv, then each field that moved as ``old -> new``."""
    fields = [f"{key} {old[key]} -> {new[key]}" for key in ("code", "stdout", "out") if old[key] != new[key]]
    return "\n    ".join([shlex.join(new["argv"]), *fields])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Replay the golden CLI corpus and report each run that moved.")
    parser.add_argument("--repin", action="store_true", help="rewrite golden.json with this machine's digests and BLAS key")
    args = parser.parse_args(argv)
    pinned = json.loads(PATH.read_text(encoding="utf-8")) if PATH.exists() else {"blas": None, "runs": []}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        replayed = {"blas": blas_key(), "runs": replay(Path(tmp), corpus_argvs())}
    # A re-pin rewrites every digest, so it reports every change whatever key the old pins carry.
    same_key = args.repin or pinned["blas"] == replayed["blas"]
    moved = differences(pinned["runs"], replayed["runs"], float_digests=same_key)
    for old, new in moved:
        print(describe(old, new))
    print(f"{len(moved)} of {len(replayed['runs'])} runs moved")
    if not same_key:
        unchecked = sum(not blas_free(entry) for entry in pinned["runs"])
        print(f"not checked: {unchecked} float-bearing runs are pinned for BLAS {pinned['blas']}, not {replayed['blas']}")
    if args.repin:
        PATH.write_text(dumps(replayed), encoding="utf-8")
        return 0
    return 1 if moved or len(pinned["runs"]) != len(replayed["runs"]) else 0


if __name__ == "__main__":
    sys.exit(main())
