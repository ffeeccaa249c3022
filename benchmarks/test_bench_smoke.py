"""Smoke tests of the benchmark itself, at the smallest sizes.

Run from the repository root:

    python3 -m pytest benchmarks

They check that every metric BENCHMARK.json declares is printed with its
unit, that every oracle passes, that the report digest and the per-layer
counts repeat for the same seed, and that the benchmark refuses to run
without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=7, cwd=ROOT, script=HERE / "run.py"):
    args = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    digest = next(line for line in lines if line.startswith("digest:"))
    return result, digest


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_oracles_and_repeatability(workload, trace, section):
    first, digest = result_of(bench(workload, trace))
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 100
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in first["metrics"].values())

    second, digest_again = result_of(bench(workload, trace))
    assert digest_again == digest
    if trace:
        counts = {k for k, unit in declared.items() if unit in ("count", "bytes")}
        assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
