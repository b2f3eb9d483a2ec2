"""One repetition of one workload, in a process of its own.

Usage (normally started by ``run.py``)::

    python3 bench/worker.py --workload NAME --seed N --out DIR --t0 NS [--scale X] [--spans FILE]

``--t0`` is ``time.monotonic_ns()`` taken by the parent just before it
started this process, so ``setup_s`` covers interpreter start, imports,
config and profile load and any trace file the workload writes. Prints one
JSON object as its last stdout line. An exception or a failed output check
exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import Workload  # noqa: E402


def csv_digest(directory: str) -> str:
    """SHA-256 over every CSV below ``directory``, names and bytes, in sorted order."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".csv"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, directory).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--spans", help="trace the body and write its spans here as JSON")
    args = p.parse_args()

    import elastidebt

    if os.path.dirname(os.path.abspath(elastidebt.__file__)) != os.path.join(ROOT, "src", "elastidebt"):
        raise SystemExit(f"elastidebt imported from {elastidebt.__file__}, not from this checkout")

    wl = Workload(args.workload, args.seed, args.scale, ROOT, args.out)
    wl.setup()
    tracer = Tracer() if args.spans else None
    with tracer.patched() if tracer is not None else contextlib.nullcontext():
        started = time.monotonic()
        setup_s = started - args.t0 / 1e9
        wl.body()
        wall_s = time.monotonic() - started
    rss = peak_rss_mb()

    wl.check()
    out = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "requests": wl.requests(),
        "peak_rss_mb": rss,
        "digest": csv_digest(os.path.join(args.out, "csv")),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans, wall_s)
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
