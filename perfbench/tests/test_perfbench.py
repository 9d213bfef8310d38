"""Tests of the benchmark itself: deterministic counters and output format.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_trace(workdir: Path, references):
    workdir.mkdir()
    checks = workloads.Checks(references)
    suite = workloads.suite(pipeline_n=80, roundtrip_n=150, battery_n=12)
    return run.trace(seed=5, checks=checks, workdir=str(workdir), suite=suite), checks


def test_traced_counts_repeat_exactly(tmp_path):
    first, recorded = small_trace(tmp_path / "a", None)
    second, checks = small_trace(tmp_path / "b", recorded.recorded)
    assert recorded.failed == 0 and checks.failed == 0, checks.messages
    assert checks.attempted == recorded.attempted > 0

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert sorted(first) == sorted(declared)
    counts = [name for name, unit in declared.items()
              if unit != "s" and name != "trace.overhead_frac"]
    assert counts
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


def test_end_to_end_metrics_printed_with_units():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "pipeline",
                           "--seed", "1", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0
        assert any(line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(line.startswith("metric failed_frac 0 ") for line in lines)


def copy_benchmark(to: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", to)
    shutil.copytree(BENCH, to / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def run_pipeline(cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline",
                           "--seed", "0", "--seconds", "0", "--trace", "0"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_refuses_to_run_without_the_package(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_pipeline(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_output_fails_the_run(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src" / "sparse_rips", tmp_path / "src" / "sparse_rips",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "perfbench" / "references.json"
    references = json.loads(path.read_text())
    key = workloads.suite()["pipeline"].key
    references[key] = {instance: "0" * 64 for instance in references[key]}
    path.write_text(json.dumps(references))

    proc = run_pipeline(tmp_path)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert not doc["correct"] and doc["failed"] >= 1
