"""Fast smoke test of the benchmark at a tiny horizon.

Run from the repository root with ``python3 -m pytest bench/test_bench_smoke.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCALE = "0.05"  # horizons of 3 to 18 minutes


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(*args: str, root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_all_workloads_print_every_metric():
    proc = run("--workload", "all", "--seconds", "0", "--scale", SCALE)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    b = spec()
    for workload in (w["name"] for w in b["workloads"]):
        for metric in b["end_to_end"] + b["per_layer"]:
            assert f"{workload}.{metric['name']}" in result["metrics"]
    for metric in b["end_to_end"] + b["per_layer"]:
        assert f"  {metric['name']} " in proc.stdout


def test_single_workload_reports_exactly_the_listed_metrics():
    b = spec()
    for trace, listed in (("0", b["end_to_end"]), ("1", b["per_layer"])):
        proc = run("--workload", "paired-battery", "--seed", "4", "--seconds", "0", "--trace", trace, "--scale", SCALE)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run("--workload", "primary-only", "--seconds", "1", root=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
