"""elastidebt benchmark: end-to-end and per-layer metrics of three workloads.

Usage, from the repository root::

    python3 bench/run.py                                   # all workloads, e2e + traced
    python3 bench/run.py --workload primary-only --seed 3 --seconds 40 --trace 0

Each repetition of a workload runs in a fresh process (``worker.py``).
Repetitions are started until ``--seconds`` would be exceeded (at least
three). With ``--trace 0`` the calibration kernel of ``calibrate.py`` runs
before each repetition and after the last, and the last stdout line is a
JSON object with the end-to-end metrics, their times scaled to the reference
host's speed; with ``--trace 1``
untraced and traced repetitions alternate and the JSON holds the per-layer
metrics of the traced ones. ``--workload all`` does both for every
workload. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

sys.path.insert(0, BENCH_DIR)
from calibrate import REFERENCE_S, calibrate  # noqa: E402
from workloads import HORIZONS  # noqa: E402

WORKLOADS = tuple(HORIZONS)
MIN_REPS = 3
CAL_SHARE = 0.3  # share of an untraced run spent in the calibration kernel
REP_TIMEOUT_S = 120  # one run must end within 180 s


_RATIOS = ("economics.replays_per_call", "sim.replay_to_primary_requests", "experiment.run_overlap")


def unit_of(name: str) -> str:
    if name in _RATIOS:
        return "ratio"
    if name.endswith("_per_s"):
        return "req/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def run_repetition(workload: str, seed: int, scale: float, run_dir: str, k: int, traced: bool) -> tuple[dict | None, str | None]:
    """Run one worker; returns its result, or None and the reason it failed."""
    out = os.path.join(run_dir, f"rep{k}")
    os.makedirs(out)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--out", out, "--scale", str(scale)]
    if traced:
        cmd += ["--spans", os.path.join(OUT_ROOT, f"spans-{workload}-seed{seed}.json")]
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--t0", str(t0)], capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {REP_TIMEOUT_S} s"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return None, lines[-1]
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def calibrate_gap(calibs: list[float], elapsed: float) -> None:
    """Run the kernel at least once, and until it has taken ``CAL_SHARE`` of
    the run so far: long repetitions get as many samples of the host's speed
    as short ones."""
    calibs.append(calibrate())
    while sum(calibs) < CAL_SHARE * elapsed:
        calibs.append(calibrate())


def measure(
    workload: str, seed: int, seconds: float, scale: float, traced: bool
) -> tuple[list[tuple[dict | None, str | None, bool]], list[float]]:
    """Repetitions until ``seconds`` would be exceeded; traced mode alternates
    untraced and traced ones. Returns (result, error, was_traced) triples and,
    untraced, the times of the calibration kernel, which runs before each
    repetition and after the last."""
    os.makedirs(OUT_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT_ROOT)
    pattern = (False, True) if traced else (False,)
    reps: list[tuple[dict | None, str | None, bool]] = []
    rounds: list[float] = []
    calibs: list[float] = []
    started = time.monotonic()
    try:
        while len(reps) < MIN_REPS or time.monotonic() - started + statistics.median(rounds) <= seconds:
            round_start = time.monotonic()
            for mode in pattern:
                if not traced:
                    calibrate_gap(calibs, time.monotonic() - started)
                reps.append((*run_repetition(workload, seed, scale, run_dir, len(reps), mode), mode))
            rounds.append(time.monotonic() - round_start)
        if not traced:
            calibrate_gap(calibs, time.monotonic() - started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return reps, calibs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(
    workload: str, seed: int, reps: list[tuple[dict | None, str | None, bool]], calibs: list[float], traced: bool
) -> dict:
    """Print the human-readable report and return the run's result object."""
    ok = [(res, mode) for res, _, mode in reps if res is not None]
    for _, error, _ in reps:
        if error is not None:
            print(f"{workload}: repetition failed: {error}")
    digests = sorted({res["digest"] for res, _ in ok})
    print(f"{workload} seed={seed}: {len(reps)} repetitions, {len(reps) - len(ok)} failed")
    for d in digests:
        print(f"{workload} csv sha256 {d}")
    if not ok:
        return {"correct": False, "attempted": len(reps), "failed": len(reps), "metrics": None}

    metrics: dict[str, dict] = {}

    def show(name: str, unit: str, values: list[float], value: float | None = None) -> float:
        """Print a metric with the quartiles of ``values``; its figure is
        ``value`` when given (the ratio-of-means figures), else the median."""
        q1, med, q3 = quartiles(values)
        stat = "median" if value is None else "mean"
        value = med if value is None else value
        print(f"  {name:34s} {value:14.6f} {unit:6s} q1={q1:.6f} q3={q3:.6f} n={len(values)} ({stat})")
        return value

    def report(name: str, unit: str, values: list[float], value: float | None = None) -> None:
        metrics[name] = {"value": show(name, unit, values, value), "unit": unit}

    plain = [res for res, mode in ok if not mode]
    if traced:
        layered = [res["layers"] for res, mode in ok if mode]
        for name in layered[0] if layered else ():
            report(name, unit_of(name), [lay[name] for lay in layered])
        if layered and plain:
            overhead = statistics.median(lay["trace.wall_s"] for lay in layered) - statistics.median(
                res["wall_s"] for res in plain
            )
            report("trace.overhead_s", "s", [overhead])
    else:
        # Times in seconds of the reference host (see calibrate.py). The body
        # figures are ratios of means: a mean over the run integrates the
        # host's speed over the same stretch as the kernel's mean does.
        speed = REFERENCE_S / statistics.fmean(calibs)
        walls = [res["wall_s"] for res in plain]
        show("host.calibration_s", "s", calibs)
        show("raw_wall_s", "s", walls)
        show("raw_setup_s", "s", [res["setup_s"] for res in plain])
        norm_walls = [w * speed for w in walls]
        norm_wall = statistics.fmean(norm_walls)
        report("norm_wall_s", "s", norm_walls, norm_wall)
        requests = statistics.fmean(res["requests"] for res in plain)
        report("norm_requests_per_s", "req/s", [res["requests"] / w for res, w in zip(plain, norm_walls)], requests / norm_wall)
        report("setup_s", "s", [res["setup_s"] * speed for res in plain])
        report("peak_rss_mb", "MB", [res["peak_rss_mb"] for res in plain])
    return {
        "correct": len(digests) == 1,
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="multiply every horizon (smoke tests)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "elastidebt", "__init__.py")):
        print(f"error: no elastidebt sources under {ROOT}/src", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, traced in runs:
        reps, calibs = measure(workload, args.seed, args.seconds, args.scale, traced)
        result = summarize(workload, args.seed, reps, calibs, traced)
        if result["metrics"] is None:
            print(f"error: every repetition of {workload} failed", file=sys.stderr)
            return 1
        if args.workload != "all":
            combined = result
            break
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
