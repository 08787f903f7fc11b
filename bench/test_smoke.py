"""Smoke test of the benchmark itself (about a minute):

    python3 -m pytest bench/test_smoke.py

It checks that the metrics printed match BENCHMARK.json by name and unit,
that a damaged attacks.jsonl counts as a failure, and that the benchmark
refuses to run without the dnsamp source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import Bench, PassResult, run_stage_subprocess

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "backbone-day", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_predictions_name_known_metrics():
    predictions = json.loads((ROOT / "bench" / "predictions.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for layer in predictions["layers"]:
        assert set(layer["metrics"]) <= per_layer, layer["layer"]
        assert set(layer["moves"]) <= end_to_end, layer["layer"]
        assert set(layer["on"]) | set(layer["flat_on"]) <= workloads, layer["layer"]
    assert {m for layer in predictions["layers"] for m in layer["metrics"]} == per_layer


def test_truncated_attacks_counts_as_failed():
    bench = Bench(ROOT, "backbone-day", 3, 1.0)
    try:
        bench.setup()
        out_dir = bench.work / "pass-truncated"
        result = PassResult(out_dir, [run_stage_subprocess(stage, bench.input_dir, out_dir,
                                                           bench.src)
                                      for stage in bench.stages])
        attacks = out_dir / "attacks.jsonl"
        data = attacks.read_bytes()
        attacks.write_bytes(data[: data.index(b"\n", len(data) // 2) - 5])
        bench.check_pass(result)
        assert "attacks.jsonl unreadable" in bench.checks.failures
        assert bench.detail({})["failed_share"]["value"] > 0
    finally:
        bench.cleanup()


def test_refuses_to_run_without_source():
    bare = ROOT / ".bench_run" / "no-source"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, 0)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
