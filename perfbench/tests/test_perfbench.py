"""Tests of the bank-build benchmark itself (tiny slices, so they stay fast).

Every workload must print every metric BENCHMARK.json names, with its unit,
in both modes; a damaged warm cache must surface as a failed output check;
and outside a source checkout the benchmark must fail without a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload run.py accepts; BENCHMARK.json lists those the budget holds.
WORKLOADS = ["cold-bank", "warm-bank", "serve-bank"]


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_lists_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace == "0":
        for name in ("setup_s", "build_s", "peak_rss_mb", "qdock_ca_rmsd_mean"):
            assert result["metrics"][name]["value"] > 0


def _tamper(cache_dir: Path) -> None:
    """Shift every float of one cached payload by 0.5."""

    def shift(value):
        if isinstance(value, float):
            return value + 0.5
        if isinstance(value, list):
            return [shift(v) for v in value]
        if isinstance(value, dict):
            return {k: shift(v) for k, v in value.items()}
        return value

    path = sorted(cache_dir.rglob("*.json"))[0]
    path.write_text(json.dumps(shift(json.loads(path.read_text()))))


def test_tampered_warm_cache_is_a_failed_check(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bankbench

    args = argparse.Namespace(workload="warm-bank", seed=3, seconds=1.0, trace=0, tiny=True)
    result = bankbench.run_workload(args, after_fill=_tamper)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__")
    )
    done = run_benchmark(
        "--workload", "cold-bank", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
