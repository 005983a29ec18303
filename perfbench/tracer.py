"""Span recorder for the traced run, installed from outside the program.

The recorder replaces module attributes of the ``framesel`` package with
timing wrappers while tracing is on, and puts the originals back when it
is off.  A function is wrapped everywhere the request path can resolve it:
every loaded ``framesel`` module attribute bound to the same function
object is replaced (``read_json`` is imported by name into ``pool``,
``embeddings``, ``selection`` and ``routing``, and each of those bindings
is wrapped under the one span name ``fileio.read_json``).  A function that
no longer exists is skipped and simply records zero calls.

Each call records a span (name, start, end, parent span, request id) plus
per-span extras such as bytes read; spans stay in memory until the run
writes them out.  A tracer made with ``alloc=True`` also runs
``tracemalloc`` inside the spans named in ``ALLOC_SPANS`` and records their
allocation peak; tracemalloc slows allocation-heavy code (lazy greedy
by more than 2x), so timed spans come from a tracer without it.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

PACKAGE = "framesel"

# (defining module, function) pairs: the public functions of the layers on
# the request path.  ``oracle`` and ``errors`` are not on it.
TARGETS = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("cli", "cmd_select"),
    ("pool", "read_pool_manifest"),
    ("fileio", "read_json"),
    ("fileio", "canonical_json"),
    ("fileio", "atomic_write_bytes"),
    ("embeddings", "load_embeddings"),
    ("embeddings", "read_embedding_file"),
    ("embeddings", "l2_normalize_rows"),
    ("embeddings", "relevance_scores"),
    ("embeddings", "similarity_matrix"),
    ("selection", "make_preset"),
    ("selection", "select"),
    ("selection", "selection_result_doc"),
    ("routing", "read_model"),
    ("routing", "read_routing_table"),
    ("routing", "predict_type"),
    ("routing", "route_for_type"),
)

ALLOC_SPANS = ("embeddings.similarity_matrix", "selection.select")


def _extras(name: str, args, kwargs, result) -> dict[str, float]:
    """Work counts for one call, taken outside the span's timed interval."""
    if name == "embeddings.read_embedding_file":
        path = args[0] if args else kwargs["path"]
        return {"bytes": float(os.path.getsize(path))}
    if name == "fileio.atomic_write_bytes":
        data = args[1] if len(args) > 1 else kwargs["data"]
        return {"bytes": float(len(data))}
    if name == "embeddings.similarity_matrix":
        n, d = (args[0] if args else kwargs["es"]).semantic.shape
        return {"gflop": 2.0 * n * n * d / 1e9}
    if name == "selection.select":
        return {"steps": float(len(result.positions))}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int
    extras: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Wraps ``TARGETS`` in the loaded ``framesel`` modules on ``install()``.

    ``install`` and ``uninstall`` run outside timed regions; a target whose
    module or function no longer exists is skipped.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        alloc = self.alloc and name in ALLOC_SPANS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request)
            self.spans.append(span)
            self._stack.append(index)
            if alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if alloc:
                    span.extras["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
            span.extras.update(_extras(name, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patches):
            setattr(module, key, value)
        self._patches.clear()


def layers_by_request(spans: list[Span]) -> dict[int, dict[str, dict[str, float]]]:
    """Per-request, per-span-name totals.

    ``ms`` sums span durations, ``self_ms`` subtracts the time covered by
    direct child spans (children of one span never overlap: the program is
    single-threaded), ``calls`` counts spans, and extras are summed except
    allocation peaks, which take the maximum.
    """
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ms[s.parent] += (s.end - s.start) * 1e3
    out: dict[int, dict[str, dict[str, float]]] = {}
    for i, s in enumerate(spans):
        duration = (s.end - s.start) * 1e3
        row = out.setdefault(s.request, {}).setdefault(s.name, {"ms": 0.0, "self_ms": 0.0, "calls": 0.0})
        row["ms"] += duration
        row["self_ms"] += duration - child_ms[i]
        row["calls"] += 1.0
        for key, value in s.extras.items():
            if key == "peak_alloc_mb":
                row[key] = max(row.get(key, 0.0), value)
            else:
                row[key] = row.get(key, 0.0) + value
    return out


# (metric, span, field, unit): per-request values whose median the traced
# run reports.  A span that never ran in a request counts as 0 there.
SPAN_METRICS = (
    ("cli.main.ms", "cli.main", "ms", "ms"),
    ("cli.main.self_ms", "cli.main", "self_ms", "ms"),
    ("cli.build_parser.ms", "cli.build_parser", "ms", "ms"),
    ("cli.cmd_select.self_ms", "cli.cmd_select", "self_ms", "ms"),
    ("pool.read_pool_manifest.ms", "pool.read_pool_manifest", "ms", "ms"),
    ("pool.read_pool_manifest.calls", "pool.read_pool_manifest", "calls", "count"),
    ("fileio.read_json.ms", "fileio.read_json", "ms", "ms"),
    ("fileio.read_json.calls", "fileio.read_json", "calls", "count"),
    ("embeddings.load_embeddings.ms", "embeddings.load_embeddings", "ms", "ms"),
    ("embeddings.load_embeddings.self_ms", "embeddings.load_embeddings", "self_ms", "ms"),
    ("embeddings.read_embedding_file.ms", "embeddings.read_embedding_file", "ms", "ms"),
    ("embeddings.read_embedding_file.calls", "embeddings.read_embedding_file", "calls", "count"),
    ("embeddings.read_embedding_file.bytes", "embeddings.read_embedding_file", "bytes", "bytes"),
    ("embeddings.l2_normalize_rows.ms", "embeddings.l2_normalize_rows", "ms", "ms"),
    ("embeddings.relevance_scores.ms", "embeddings.relevance_scores", "ms", "ms"),
    ("embeddings.similarity_matrix.ms", "embeddings.similarity_matrix", "ms", "ms"),
    ("embeddings.similarity_matrix.calls", "embeddings.similarity_matrix", "calls", "count"),
    ("embeddings.similarity_matrix.gflop", "embeddings.similarity_matrix", "gflop", "GFLOP"),
    ("embeddings.similarity_matrix.peak_alloc_mb", "embeddings.similarity_matrix", "peak_alloc_mb", "MiB"),
    ("selection.select.ms", "selection.select", "ms", "ms"),
    ("selection.select.peak_alloc_mb", "selection.select", "peak_alloc_mb", "MiB"),
    ("selection.selection_result_doc.ms", "selection.selection_result_doc", "ms", "ms"),
    ("fileio.canonical_json.ms", "fileio.canonical_json", "ms", "ms"),
    ("fileio.atomic_write_bytes.ms", "fileio.atomic_write_bytes", "ms", "ms"),
    ("fileio.atomic_write_bytes.bytes", "fileio.atomic_write_bytes", "bytes", "bytes"),
    ("routing.read_model.ms", "routing.read_model", "ms", "ms"),
    ("routing.read_routing_table.ms", "routing.read_routing_table", "ms", "ms"),
    ("routing.predict_type.ms", "routing.predict_type", "ms", "ms"),
    ("routing.predict_type.calls", "routing.predict_type", "calls", "count"),
)

# Metrics derived from two fields of one request, with their units.
DERIVED_METRICS = {
    "selection.select.ms_per_step": "ms",  # select ms / min(K, N)
    "selection.select.share": "ratio",  # select ms / cli.main ms
}


def layer_metrics(spans: list[Span], alloc_spans: list[Span]) -> dict[str, float]:
    """Median over requests of every ``SPAN_METRICS`` and derived value.

    Allocation peaks come from ``alloc_spans`` (a tracer with ``alloc=True``),
    everything else from ``spans``.
    """
    timed = list(layers_by_request(spans).values())
    allocs = list(layers_by_request(alloc_spans).values())

    def field_of(row, span: str, key: str) -> float:
        return row.get(span, {}).get(key, 0.0)

    def median(values) -> float:
        return float(statistics.median(values)) if values else 0.0

    out = {
        metric: median([field_of(r, span, key) for r in (allocs if key == "peak_alloc_mb" else timed)])
        for metric, span, key, _ in SPAN_METRICS
    }
    out["selection.select.ms_per_step"] = median(
        [field_of(r, "selection.select", "ms") / max(field_of(r, "selection.select", "steps"), 1.0) for r in timed]
    )
    out["selection.select.share"] = median(
        [field_of(r, "selection.select", "ms") / max(field_of(r, "cli.main", "ms"), 1e-9) for r in timed]
    )
    return out
