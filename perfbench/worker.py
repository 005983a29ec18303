"""Benchmark worker: imports the program, reports ready, runs one closed loop.

``run.py`` spawns this script and times spawn-to-ready as set-up.  After
the ``ready`` line the worker reads one line from stdin: ``exit``, or a
JSON job.  A job runs its requests one after another (one client, closed
loop) for ``seconds``; each request is one in-process call of
``framesel.cli.main(["select", ..., "--out", path])``, so the timed path
is the real command-line path.  The worker writes its samples to the
job's ``result`` file and, in a traced run, its spans to ``spans``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ALLOC_REQUESTS = 4  # requests in the traced run's allocation-peak pass


class _Sink(io.TextIOBase):
    def write(self, text):
        return len(text)


def _request(cli, argv: list[str], out: str) -> tuple[float, int, str, str | None]:
    """Run one CLI call; returns (ms, exit code, stderr text, output sha256)."""
    if os.path.exists(out):
        os.unlink(out)
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = _Sink(), err
    try:
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is a failed request, not a failed run
            code = -1
            err.write(traceback.format_exc())
        ms = (time.perf_counter() - t0) * 1e3
    finally:
        sys.stdout, sys.stderr = saved
    digest = None
    if os.path.exists(out):
        with open(out, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    return ms, code, err.getvalue(), digest


def _scaling_probe(seed: int, repeats: int) -> list[float]:
    """t(2000)/t(1000) by the acceptance gate's protocol, ``repeats`` times.

    Each repeat takes the best of five ``select`` calls at each size:
    K=32, i.i.d. d=64 rows, ``relevance_oriented``.
    """
    import numpy as np

    import framesel as fs

    preset = fs.make_preset("relevance_oriented")
    ratios = []
    for rep in range(repeats):
        best = {}
        for n in (1000, 2000):
            rng = np.random.default_rng([seed, rep])
            rows = rng.normal(size=(n, 64))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            values = rows @ rows.T
            scores = rng.uniform(0.0, 1.0, n)
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                fs.select(scores, values, 32, preset)
                times.append(time.perf_counter() - t0)
            best[n] = min(times)
        ratios.append(best[2000] / best[1000])
    return ratios


def _lazy_probe(seed: int) -> float:
    """Best of three lazy ``select`` calls (ms) in the greedy-lazy-iid shape.

    N=2000, K=128, ``coverage_oriented``, i.i.d. d_s=512 / d_d=768 rows:
    this keeps the lazy engine visible in every traced run.
    """
    import numpy as np

    import framesel as fs

    rng = np.random.default_rng([seed, 2])

    def unit(shape):
        rows = rng.normal(size=shape)
        return rows / np.linalg.norm(rows, axis=-1, keepdims=True)

    semantic = unit((2000, 768))
    values = semantic @ semantic.T
    scores = np.maximum(unit((2000, 512)) @ unit(512), 0.0)
    preset = fs.make_preset("coverage_oriented")
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fs.select(scores, values, 128, preset, engine="lazy")
        times.append((time.perf_counter() - t0) * 1e3)
    return min(times)


def run_job(cli, job: dict) -> dict:
    requests = job["requests"]
    trace = bool(job["trace"])
    samples: list[list] = []
    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    overhead: list[float] = []

    # One untimed request first: the allocator grows its heap to fit the
    # N x N buffers, so later requests run on steady memory.
    _request(cli, requests[0]["argv"], requests[0]["out"])
    start = time.perf_counter()
    deadline = start + job["seconds"]
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        index = i % len(requests)
        argv, out = requests[index]["argv"], requests[index]["out"]
        if tracer is None:
            samples.append([index, *_request(cli, argv, out), False])
        else:
            # Pair an untraced and a traced call of the same request,
            # alternating which goes first, for the tracing overhead.
            pair = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.request = i
                    tracer.install()
                try:
                    pair[traced] = _request(cli, argv, out)
                finally:
                    tracer.uninstall()
                samples.append([index, *pair[traced], traced])
            overhead.append(pair[True][0] - pair[False][0])
        i += 1
    loop_s = time.perf_counter() - start

    result = {
        "samples": samples,
        "loop_s": loop_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        # Allocation peaks from a separate untimed pass with tracemalloc on.
        memory = Tracer(alloc=True)
        for k in range(min(ALLOC_REQUESTS, len(requests))):
            memory.request = k
            memory.install()
            try:
                _request(cli, requests[k]["argv"], requests[k]["out"])
            finally:
                memory.uninstall()
        result["layers"] = layer_metrics(tracer.spans, memory.spans)
        result["overhead_ms"] = overhead
        result["scaling"] = _scaling_probe(job["seed"], job["scaling_repeats"])
        result["lazy_select_ms"] = _lazy_probe(job["seed"])
        with open(job["spans"], "w", encoding="utf-8") as handle:
            json.dump([[s.name, s.start, s.end, s.parent, s.request, s.extras] for s in tracer.spans], handle)
    return result


def main() -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import framesel.cli as cli

    t2 = time.perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"framesel was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    ready = {"import_numpy_ms": (t1 - t0) * 1e3, "import_framesel_ms": (t2 - t1) * 1e3}
    print(json.dumps(ready), flush=True)

    line = sys.stdin.readline().strip()
    if not line or line == "exit":
        return 0
    job = json.loads(line)
    result = run_job(cli, job)
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
