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
import sys

from .embeddings import (
    RELEVANCE_MODES,
    load_embeddings,
    relevance_scores,
    similarity_matrix,
)
from .errors import FrameselError, InstanceTooLargeError, ParameterError
from .fileio import atomic_write_bytes, canonical_json
from .oracle import (
    MAX_EXACT_N,
    check_bound,
    oracle_report_doc,
    property_suite,
    property_summary_doc,
    random_instances,
)
from .pool import (
    DEFAULT_CAP,
    VideoMeta,
    build_pool,
    even_spacing,
    pool_manifest_doc,
    read_pool_manifest,
)
from .routing import (
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
    ENGINES,
    PRESET_NAMES,
    coverage_value,
    make_preset,
    objective_value,
    preset_doc,
    relevance_sum,
    select,
    selection_result_doc,
)


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are parameter errors; route them through the uniform
    # error:<code>: reporting instead of argparse's two-line exit.
    def error(self, message):
        raise ParameterError(message)


def _emit(args, text: str, label: str) -> None:
    if args.out:
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


def _run_selection(args):
    """Resolve the preset, load the instance and run greedy for select/compare."""
    if args.preset != "auto":
        preset = make_preset(args.preset, args.lam)
    elif args.routing is None:
        raise ParameterError("--preset auto requires --routing")
    else:
        _, preset = _route_question(args)
    pool = read_pool_manifest(args.manifest)
    embeddings = load_embeddings(args.manifest)
    r = relevance_scores(embeddings, args.relevance_mode)
    sim = similarity_matrix(embeddings)
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
    return pool, r, sim, result


def cmd_pool(args) -> int:
    meta = VideoMeta(video_id=args.video_id, fps=args.fps, total_frames=args.frames)
    pool = build_pool(meta, cap=args.cap)
    _emit(args, canonical_json(pool_manifest_doc(pool)), f"pool manifest ({pool.n} candidates)")
    return 0


def cmd_select(args) -> int:
    _, _, _, result = _run_selection(args)
    _emit(
        args,
        canonical_json(selection_result_doc(result)),
        f"selection ({len(result.positions)} positions, preset {result.preset.name})",
    )
    return 0


def cmd_compare(args) -> int:
    pool, r, sim, result = _run_selection(args)
    uniform = tuple(p + 1 for p in even_spacing(pool.n, args.k))

    def row(positions) -> dict:
        return {
            "positions": [int(p) for p in positions],
            "relevance": relevance_sum(positions, r),
            "coverage": coverage_value(positions, sim, args.normalize_coverage),
            "objective": objective_value(positions, r, sim, result.preset, args.normalize_coverage),
        }

    greedy_row = row(result.positions)
    uniform_row = row(uniform)
    doc = {
        "video_id": pool.meta.video_id,
        "preset": preset_doc(result.preset),
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
    if args.n > MAX_EXACT_N:
        raise InstanceTooLargeError(f"exact search handles at most {MAX_EXACT_N} candidates, got {args.n}")
    if args.n < 1 or args.k < 1 or args.trials < 0:
        raise ParameterError("oracle needs --n >= 1, --k >= 1 and --trials >= 0")
    presets = None if args.preset == "all" else (make_preset(args.preset, args.lam),)
    instances = random_instances(args.seed, args.trials, max_n=args.n, max_k=args.k, presets=presets)
    reports = check_bound(instances)
    lines = "".join(canonical_json(oracle_report_doc(rep)) for rep in reports)
    _emit(args, lines, f"{len(reports)} oracle reports")
    return 0


def cmd_props(args) -> int:
    if args.trials < 0:
        raise ParameterError(f"--trials must be >= 0, got {args.trials}")
    summary = property_suite(args.seed, args.trials)
    _emit(args, canonical_json(property_summary_doc(summary)), "property summary")
    if not summary.passed:
        raise FrameselError(f"property violation: {summary.first_counterexample}")
    return 0


def cmd_train(args) -> int:
    examples = read_training_examples(args.data)
    types = tuple(args.types.split(",")) if args.types else None
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
    sub.add_argument("--lambda", dest="lam", type=float, default=0.5, help="oriented-preset weight in (0,1)")
    sub.add_argument("--relevance-mode", choices=RELEVANCE_MODES, default="raw_relu")
    sub.add_argument("--normalize-coverage", action="store_true", help="divide coverage by pool size")
    sub.add_argument("--engine", choices=ENGINES, default="plain")
    sub.add_argument("--model", help="classifier model JSON (auto preset)")
    sub.add_argument("--routing", help="routing table JSON (auto preset)")
    sub.add_argument("--question", help="question text (auto preset)")
    sub.add_argument("--type", dest="qtype", help="ground-truth question type, bypassing the classifier")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (atomic write); default stdout")
    common.add_argument("--quiet", action="store_true", help="suppress stdout")

    parser = _Parser(prog="framesel", description="Query-aware video frame selection.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("pool", parents=[common], help="build a candidate pool manifest")
    p.add_argument("--video-id", default="video")
    p.add_argument("--fps", type=float, required=True)
    p.add_argument("--frames", type=int, required=True, help="total decoded frames")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=cmd_pool)

    p = subs.add_parser("select", parents=[common], help="greedy frame selection")
    _add_selection_flags(p)
    p.set_defaults(func=cmd_select)

    p = subs.add_parser("compare", parents=[common], help="greedy vs uniform-sampling metrics")
    _add_selection_flags(p)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("oracle", parents=[common], help="greedy-vs-exact bound check on random instances")
    p.add_argument("--n", type=int, default=12, help=f"max candidates per instance (<= {MAX_EXACT_N})")
    p.add_argument("--k", type=int, default=4, help="max budget per instance")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--preset", choices=(*PRESET_NAMES, "all"), default="all")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0, help="instance generator seed")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("props", parents=[common], help="randomized objective property checks")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0, help="property-check seed")
    p.set_defaults(func=cmd_props)

    p = subs.add_parser("train-classifier", parents=[common], help="train the question-type classifier")
    p.add_argument("--data", required=True, help="TSV of type<TAB>question lines")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--types", help="comma-separated declared type list (default: inferred)")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("fit-routing", parents=[common], help="fit the type-to-preset routing table")
    p.add_argument("--accuracy", required=True, help="per-type per-preset accuracy CSV")
    p.set_defaults(func=cmd_fit_routing)

    p = subs.add_parser("route", parents=[common], help="resolve a question to a preset")
    p.add_argument("--routing", required=True, help="routing table JSON")
    p.add_argument("--model", help="classifier model JSON")
    p.add_argument("--question", help="question text")
    p.add_argument("--type", dest="qtype", help="ground-truth question type, bypassing the classifier")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.set_defaults(func=cmd_route)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return int(args.func(args) or 0)
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
