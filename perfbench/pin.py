"""Rewrite pinned.json: the sha256 of every request's output for the pinned seed.

    python3 perfbench/pin.py

Outputs must stay bit-identical across versions of the program, so run
this only on a commit whose outputs are known to be right, and only to
pin a new BLAS build or a deliberate change of output.  Each request of
each workload runs once, in-process, through ``framesel.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from run import HERE, PINNED, SRC, WORK, environment

SEED = 0


def main() -> int:
    sys.path.insert(0, str(SRC))
    import gen
    from framesel import cli

    digests = {}
    WORK.mkdir(parents=True, exist_ok=True)
    for workload in gen.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            inputs = gen.generate(workload, SEED, Path(tmp))
            out = Path(tmp) / "out.json"
            digests[workload] = []
            for request in inputs.requests:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(request.argv + ["--out", str(out)])
                if code != 0:
                    print(f"{workload} request {request.index} exited with {code}", file=sys.stderr)
                    return 1
                digests[workload].append(hashlib.sha256(out.read_bytes()).hexdigest())
    pins = {"seed": SEED, "blas_config": environment()["blas_config"], "sha256": digests}
    PINNED.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PINNED.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
