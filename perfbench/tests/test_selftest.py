"""Self-test of the benchmark: every workload at the tiny size.

Run from the checkout root with `python3 -m pytest perfbench/tests -q`.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

bench.import_tailcast()

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT_COUNTS = ("distcore.target_calls", "sampler.burn_in_rounds",
                "sampler.sample_steps", "stats.cdf_points")


def run_tiny(workload: str, trace: int, workdir: Path) -> dict:
    args = argparse.Namespace(workload=workload, seed=0, seconds=0.0, trace=trace,
                              size="tiny", workdir=str(workdir))
    return bench.run(args)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_tiny(workload, tmp_path):
    plain = run_tiny(workload, 0, tmp_path)
    traced = [run_tiny(workload, 1, tmp_path) for _ in range(2)]

    for result in (plain, *traced):
        assert result["correct"], result["problems"]
        assert result["attempted"] >= 1
    expected = {**bench.END_TO_END, **bench.NAMED[workload], "fail_frac": ("ratio", "lower")}
    assert {n: m["unit"] for n, m in plain["metrics"].items()} == \
        {n: unit for n, (unit, _) in expected.items()}
    for result in traced:
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {n: unit for n, (unit, _) in LAYER_METRICS.items()}

    for name in EXACT_COUNTS:
        assert traced[0]["metrics"][name]["value"] == traced[1]["metrics"][name]["value"], name
    assert plain["digest"] == traced[0]["digest"] == traced[1]["digest"]

    line = bench.contract_line(plain, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(bench.END_TO_END)
    saved = json.loads((tmp_path / "results" / f"{workload}-tiny-seed0-trace0.json").read_text())
    assert {"host", "python", "numpy", "scipy", "git_commit", "seed"} <= set(saved["meta"])


def test_benchmark_json_matches_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "report", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
