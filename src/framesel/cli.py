"""Command-line entry point.

Subcommands: ``pool``, ``select``, ``compare``, ``oracle``, ``props``,
``train-classifier``, ``fit-routing``, ``route``.  Every command accepts
``--out`` (write the result file atomically; default prints the document
to stdout) and ``--quiet``; the randomized ``oracle`` and ``props`` also
take ``--seed``.

Outputs are canonical single-line JSON, so repeated runs with identical
inputs produce byte-identical files.  Every failure prints one line
``error:<code>:<message>`` to stderr and exits with that code: 2 for
malformed files, 3 for misaligned inputs, 4 for bad parameters, 1 for
everything else (including verification failures).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

import numpy as np

from .embeddings import (
    DEFAULT_RELEVANCE_MODE,
    RELEVANCE_MODES,
    load_embeddings,
    relevance_scores,
    similarity_matrix,
)
from .errors import FrameselError, ParameterError
from .fileio import atomic_write_bytes, canonical_json
from .oracle import (
    DEFAULT_MAX_K,
    DEFAULT_MAX_N,
    MAX_EXACT_N,
    check_bound,
    oracle_report_doc,
    property_suite,
    property_summary_doc,
    random_instances,
)
from .pool import (
    DEFAULT_CAP,
    CandidatePool,
    VideoMeta,
    build_pool,
    even_spacing,
    pool_manifest_doc,
    read_pool_manifest,
)
from .routing import (
    DEFAULT_EPOCHS,
    DEFAULT_LEARNING_RATE,
    fit_routing,
    model_doc,
    predict_type,
    read_accuracy_table,
    read_model,
    read_routing_table,
    read_training_examples,
    route_for_type,
    routing_table_doc,
    train_classifier,
)
from .selection import (
    DEFAULT_LAMBDA,
    ENGINES,
    PRESET_NAMES,
    SelectionResult,
    make_preset,
    objective_terms,
    preset_doc,
    select,
    selection_result_doc,
)

# A corpus that keeps making sub-ulp progress runs every epoch it is given.
MAX_EPOCHS = 10_000


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are parameter errors; route them through the uniform
    # error:<code>: reporting instead of argparse's two-line exit.
    def error(self, message):
        raise ParameterError(message)


def _text(value: str) -> str:
    # Undecodable argv bytes arrive as lone surrogates, which no UTF-8
    # output file can hold.
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError("not valid UTF-8") from None
    return value


def _out_path(value: str) -> str:
    # Writing to "" would fail with an OSError naming a random temporary file.
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def _emit(args, text: str, label: str) -> None:
    if args.out is not None:
        atomic_write_bytes(args.out, text.encode("utf-8"))
        if not args.quiet:
            print(f"wrote {label} to {args.out}")
    elif not args.quiet:
        sys.stdout.write(text)


def _route_question(args):
    """(question type, preset) from ``--routing`` plus ``--type`` or the classifier."""
    table = read_routing_table(args.routing)
    qtype = args.qtype
    if qtype is None:
        if args.model is None or args.question is None:
            raise ParameterError("routing a question needs --model and --question, or --type")
        qtype, _ = predict_type(read_model(args.model), args.question)
    return qtype, route_for_type(table, qtype, args.lam)


@dataclass(frozen=True, eq=False)
class _Run:
    # One select/compare run: the pool, the question type ``--preset auto``
    # routed by (None for a named preset), the relevance scores, the
    # similarity matrix (None when nothing reads it) and greedy's result.
    pool: CandidatePool
    qtype: str | None
    scores: np.ndarray
    sim: np.ndarray | None
    result: SelectionResult


def _run_selection(args, compare: bool = False) -> _Run:
    """Resolve the preset, load the instance and run greedy for select/compare.

    The N x N similarity matrix is built only when something reads it:
    ``compare`` scores coverage, and greedy reads it when beta != 0.
    """
    qtype = None
    if args.preset != "auto":
        preset = make_preset(args.preset, args.lam)
    elif args.routing is None:
        raise ParameterError("--preset auto requires --routing")
    else:
        qtype, preset = _route_question(args)
    pool = read_pool_manifest(args.manifest)
    embeddings = load_embeddings(args.manifest)
    r = relevance_scores(embeddings, args.relevance_mode)
    sim = similarity_matrix(embeddings) if compare or preset.beta != 0.0 else None
    del embeddings  # greedy needs only r and sim: free the N x d matrices
    result = select(
        r,
        sim,
        args.k,
        preset,
        pool,
        normalize_coverage=args.normalize_coverage,
        engine=args.engine,
    )
    return _Run(pool=pool, qtype=qtype, scores=r, sim=sim, result=result)


def cmd_pool(args) -> int:
    meta = VideoMeta(video_id=args.video_id, fps=args.fps, total_frames=args.frames)
    pool = build_pool(meta, cap=args.cap)
    _emit(args, canonical_json(pool_manifest_doc(pool)), f"pool manifest ({pool.n} candidates)")
    return 0


def cmd_select(args) -> int:
    result = _run_selection(args).result
    _emit(
        args,
        canonical_json(selection_result_doc(result)),
        f"selection ({len(result.positions)} positions, preset {result.preset.name})",
    )
    return 0


def cmd_compare(args) -> int:
    run = _run_selection(args, compare=True)
    uniform = tuple(p + 1 for p in even_spacing(run.pool.n, args.k))

    def row(positions) -> dict:
        rel, cov, obj = objective_terms(positions, run.scores, run.sim, run.result.preset, args.normalize_coverage)
        return {"positions": [int(p) for p in positions], "relevance": rel, "coverage": cov, "objective": obj}

    greedy_row = row(run.result.positions)
    uniform_row = row(uniform)
    doc = {
        "video_id": run.pool.meta.video_id,
        "preset": preset_doc(run.result.preset),
        "budget": int(args.k),
        "coverage_normalized": bool(args.normalize_coverage),
        "greedy": greedy_row,
        "uniform": uniform_row,
        "delta": {
            key: greedy_row[key] - uniform_row[key]
            for key in ("relevance", "coverage", "objective")
        },
    }
    _emit(args, canonical_json(doc), "comparison metrics")
    return 0


def cmd_oracle(args) -> int:
    names = PRESET_NAMES if args.preset == "all" else (args.preset,)
    presets = [make_preset(name, args.lam) for name in names]
    instances = random_instances(args.seed, args.trials, max_n=args.n, max_k=args.k, presets=presets)
    reports = check_bound(instances)
    lines = "".join(canonical_json(oracle_report_doc(rep)) for rep in reports)
    _emit(args, lines, f"{len(reports)} oracle reports")
    return 0


def cmd_props(args) -> int:
    summary = property_suite(args.seed, args.trials)
    _emit(args, canonical_json(property_summary_doc(summary)), "property summary")
    if not summary.passed:
        raise FrameselError(f"property violation: {summary.first_counterexample}")
    return 0


def cmd_train(args) -> int:
    if args.epochs > MAX_EPOCHS:
        raise ParameterError(f"--epochs must be at most {MAX_EPOCHS}, got {args.epochs}")
    examples = read_training_examples(args.data)
    types = tuple(args.types.split(",")) if args.types is not None else None
    model = train_classifier(examples, epochs=args.epochs, learning_rate=args.learning_rate, types=types)
    label = f"model ({len(model.types)} types, final loss {model.training_loss[-1]:.6f})"
    _emit(args, canonical_json(model_doc(model)), label)
    return 0


def cmd_fit_routing(args) -> int:
    table = fit_routing(read_accuracy_table(args.accuracy))
    _emit(args, canonical_json(routing_table_doc(table)), f"routing table ({len(table.mapping)} types)")
    return 0


def cmd_route(args) -> int:
    qtype, preset = _route_question(args)
    doc = {"question": args.question, "type": qtype, "preset": preset_doc(preset)}
    _emit(args, canonical_json(doc), f"route ({qtype} -> {preset.name})")
    return 0


def _add_selection_flags(sub) -> None:
    sub.add_argument("--manifest", required=True, help="embedding manifest JSON")
    sub.add_argument("--k", type=int, default=32, help="selection budget (default 32)")
    sub.add_argument(
        "--preset",
        choices=(*PRESET_NAMES, "auto"),
        required=True,
        help="preset name, or auto to route from the question",
    )
    sub.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA, help="oriented-preset weight in (0,1)")
    sub.add_argument("--relevance-mode", choices=RELEVANCE_MODES, default=DEFAULT_RELEVANCE_MODE)
    sub.add_argument("--normalize-coverage", action="store_true", help="divide coverage by pool size")
    sub.add_argument("--engine", choices=ENGINES, default="plain")
    sub.add_argument("--model", help="classifier model JSON (auto preset)")
    sub.add_argument("--routing", help="routing table JSON (auto preset)")
    sub.add_argument("--question", type=_text, help="question text (auto preset)")
    sub.add_argument("--type", dest="qtype", type=_text, help="ground-truth question type, bypassing the classifier")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=_out_path, help="output path (atomic write); default stdout")
    common.add_argument("--quiet", action="store_true", help="suppress stdout")

    parser = _Parser(prog="framesel", description="Query-aware video frame selection.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("pool", parents=[common], help="build a candidate pool manifest")
    p.add_argument("--video-id", type=_text, default="video")
    p.add_argument("--fps", type=float, required=True)
    p.add_argument("--frames", type=int, required=True, help="total decoded frames")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = subs.add_parser("select", parents=[common], help="greedy frame selection")
    _add_selection_flags(p)

    p = subs.add_parser("compare", parents=[common], help="greedy vs uniform-sampling metrics")
    _add_selection_flags(p)

    p = subs.add_parser("oracle", parents=[common], help="greedy-vs-exact bound check on random instances")
    p.add_argument("--n", type=int, default=DEFAULT_MAX_N, help=f"max candidates per instance (<= {MAX_EXACT_N})")
    p.add_argument("--k", type=int, default=DEFAULT_MAX_K, help="max budget per instance")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--preset", choices=(*PRESET_NAMES, "all"), default="all")
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument("--seed", type=int, default=0, help="instance generator seed")

    p = subs.add_parser("props", parents=[common], help="randomized objective property checks")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0, help="property-check seed")

    p = subs.add_parser("train-classifier", parents=[common], help="train the question-type classifier")
    p.add_argument("--data", required=True, help="TSV of type<TAB>question lines")
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p.add_argument("--learning-rate", type=float, default=DEFAULT_LEARNING_RATE)
    p.add_argument("--types", type=_text, help="comma-separated declared type list (default: inferred)")

    p = subs.add_parser("fit-routing", parents=[common], help="fit the type-to-preset routing table")
    p.add_argument("--accuracy", required=True, help="per-type per-preset accuracy CSV")

    p = subs.add_parser("route", parents=[common], help="resolve a question to a preset")
    p.add_argument("--routing", required=True, help="routing table JSON")
    p.add_argument("--model", help="classifier model JSON")
    p.add_argument("--question", type=_text, help="question text")
    p.add_argument("--type", dest="qtype", type=_text, help="ground-truth question type, bypassing the classifier")
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    return parser


def _command(name: str):
    # Looked up per call, so a command function replaced on this module
    # after the parser was built is the one that runs.
    return {
        "pool": cmd_pool,
        "select": cmd_select,
        "compare": cmd_compare,
        "oracle": cmd_oracle,
        "props": cmd_props,
        "train-classifier": cmd_train,
        "fit-routing": cmd_fit_routing,
        "route": cmd_route,
    }[name]


# One parse tree per process, built on main's first call rather than at
# import; parsing leaves it unchanged, so every later call reuses it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return int(_command(args.command)(args) or 0)
    except FrameselError as exc:
        print(f"error:{exc.exit_code}:{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error:1:{exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
