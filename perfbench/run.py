"""framesel benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload qa-burst --seed 0 --seconds 50 --trace 0

Runs one workload as a closed loop with one client in a fresh worker
process, checks every output, and prints a JSON result as the last line
of stdout.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
is a separate run that wraps the program's layers from outside and
reports per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
PINNED = HERE / "pinned.json"

# Timed worker spawns per run, before the loop (the last one runs it) and
# after it; set-up is their median.
SETUP_SPAWNS_BEFORE = 3
SETUP_SPAWNS_AFTER = 4
SCALING_REPEATS = 3
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 120.0  # after --seconds, for the last request and the probe
P90_MIN_SAMPLES = 100  # at least ten samples lie beyond the 90th percentile

WORKLOAD_NAMES = ("qa-burst", "greedy-plain-corr", "greedy-lazy-iid")

END_TO_END = {
    "setup_s": "s",
    "request_ms.p50": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    from tracer import DERIVED_METRICS, SPAN_METRICS

    units = {
        "setup.import_numpy_ms": "ms",
        "setup.import_framesel_ms": "ms",
        "trace.overhead_ms": "ms",
        "selection.scaling_2000_1000": "ratio",
        "selection.scaling_2000_1000.spread": "ratio",
        "selection.lazy_iid_probe.ms": "ms",
    }
    units.update({metric: unit for metric, _, _, unit in SPAN_METRICS})
    units.update(DERIVED_METRICS)
    return units


class Workers:
    """Worker processes of one run; every one is ended and waited for on exit."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []

    def spawn(self) -> tuple[subprocess.Popen, float, dict]:
        """Start a worker and wait for ``ready``; returns (process, set-up seconds, import times)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.procs.append(proc)
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            line = proc.stdout.readline() if sel.select(READY_TIMEOUT_S) else ""
        setup = time.perf_counter() - t0
        if not line:
            raise RuntimeError(f"worker did not report ready (exit code {proc.poll()})")
        return proc, setup, json.loads(line)

    def finish(self, proc: subprocess.Popen, message: str, timeout: float) -> None:
        proc.communicate(message + "\n", timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _blas() -> dict:
    """BLAS name, build string and thread count as loaded in this process."""
    import ctypes

    import numpy as np

    info = {"name": None, "config": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype, threads.argtypes = ctypes.c_int, []
            config.restype, config.argtypes = ctypes.c_char_p, []
            info["threads"] = int(threads())
            info["config"] = config().decode("ascii", "replace").strip()
            return info
    return info


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    blas = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_config": blas["config"],
        "blas_threads": blas["threads"],
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def pinned_digests(workload: str, seed: int, env: dict) -> tuple[list[str] | None, str]:
    """The pinned output digests that apply to this run, and why or why not."""
    pins = json.loads(PINNED.read_text(encoding="utf-8"))
    if seed != pins["seed"]:
        return None, f"not checked: digests are pinned for seed {pins['seed']}"
    if env["blas_config"] != pins["blas_config"]:
        # Matrix products may round differently on another BLAS build or
        # kernel, so bit-identity is pinned for one build only.
        return None, f"not checked: digests are pinned for BLAS {pins['blas_config']!r}"
    return pins["sha256"][workload], "checked"


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int, list[str]]:
    import gen
    from checks import failed_samples

    env = environment()
    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    with tempfile.TemporaryDirectory(dir=WORK) as tmp, Workers() as workers:
        tmp = Path(tmp)
        inputs = gen.generate(workload, seed, tmp / "inputs")
        (tmp / "out").mkdir()
        requests = [{"argv": r.argv + ["--out", str(tmp / "out" / f"{r.index}.json")], "out": str(tmp / "out" / f"{r.index}.json")} for r in inputs.requests]

        # An untimed first spawn writes bytecode caches.  Timed spawns come
        # before and after the loop, so set-up samples more than one moment
        # of a machine whose speed drifts over seconds.
        workers.finish(workers.spawn()[0], "exit", READY_TIMEOUT_S)
        setups, imports = [], []

        def probe() -> subprocess.Popen:
            proc, setup, ready = workers.spawn()
            setups.append(setup)
            imports.append(ready)
            return proc

        for _ in range(SETUP_SPAWNS_BEFORE - 1):
            workers.finish(probe(), "exit", READY_TIMEOUT_S)
        proc = probe()
        job = {
            "requests": requests,
            "seconds": seconds,
            "trace": trace,
            "seed": seed,
            "scaling_repeats": SCALING_REPEATS,
            "result": str(tmp / "result.json"),
            "spans": str(WORK / f"{tag}-spans.json"),
        }
        workers.finish(proc, json.dumps(job), seconds + DRAIN_TIMEOUT_S)
        result = json.loads((tmp / "result.json").read_text(encoding="utf-8"))
        for _ in range(SETUP_SPAWNS_AFTER):
            workers.finish(probe(), "exit", READY_TIMEOUT_S)

        outputs = {}
        for r in requests:
            path = Path(r["out"])
            if path.exists():
                outputs[int(path.stem)] = path.read_bytes()
        pinned, pin_note = pinned_digests(workload, seed, env)
        samples = result["samples"]
        failed, notes = failed_samples(inputs, samples, outputs, pinned)

    spec = inputs.spec
    lines = [
        f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}",
        f"  environment {json.dumps(env)}",
        f"  shape: {len(inputs.videos)} videos, N {min(spec.pool_sizes)}..{max(spec.pool_sizes)}, "
        f"K={spec.k}, d_s={spec.d_s}, d_d={spec.d_d}, {len(inputs.requests)} distinct requests",
        f"  pinned output digests: {pin_note}",
    ]
    if trace:
        layers = dict(result["layers"])
        layers["setup.import_numpy_ms"] = statistics.median(r["import_numpy_ms"] for r in imports)
        layers["setup.import_framesel_ms"] = statistics.median(r["import_framesel_ms"] for r in imports)
        layers["trace.overhead_ms"] = statistics.median(result["overhead_ms"])
        scaling = result["scaling"]
        layers["selection.scaling_2000_1000"] = statistics.median(scaling)
        layers["selection.scaling_2000_1000.spread"] = max(scaling) - min(scaling)
        layers["selection.lazy_iid_probe.ms"] = result["lazy_select_ms"]
        units = per_layer_units()
        metrics = {name: {"value": float(layers[name]), "unit": unit} for name, unit in units.items()}
        lines.append(f"  traced requests: {sum(1 for s in samples if s[5])} (paired with as many untraced)")
        lines.append(f"  scaling ratios t(2000)/t(1000): {', '.join(f'{v:.3f}' for v in scaling)}")
    else:
        ms = [s[1] for s in samples]
        metrics = {
            "setup_s": statistics.median(setups),
            "request_ms.p50": statistics.median(ms),
            "throughput_rps": len(samples) / result["loop_s"],
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        }
        metrics = {name: {"value": float(metrics[name]), "unit": END_TO_END[name]} for name in END_TO_END}
        if len(ms) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1]
            lines.append(f"  request_ms.p90 {p90:.4f} ms ({len(ms)} samples)")
        else:
            lines.append(f"  request_ms.p90 not reported: {len(ms)} samples, {P90_MIN_SAMPLES} needed")
        lines.append(f"  request_ms.p50 over {len(ms)} samples; set-up over {len(setups)} spawns")
    for name, m in metrics.items():
        lines.append(f"  {name} {m['value']:.6g} {m['unit']}")
    lines.append(f"  failed_ratio {failed / len(samples):.6g} ({failed} of {len(samples)} requests)")
    lines.extend(f"  FAILED {note}" for note in notes)

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "environment": env,
              "attempted": len(samples), "failed": failed, "metrics": metrics, "summary": lines}
    (WORK / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return metrics, len(samples), failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "framesel" / "__init__.py").is_file():
        print(f"error: no framesel sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    # A terminated run still ends its workers and removes its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    metrics, attempted, failed, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
