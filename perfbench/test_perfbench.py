"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke runs measure for one second, so each runs one operation (two when
traced) after its set-up.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(name, start, end, parent=None):
    return tracing.Span(name, float(start), float(end), parent)


def test_self_time_subtracts_children():
    spans = [
        _span("parent", 0, 10),
        _span("child", 1, 3, parent=0),
        _span("child", 5, 9, parent=0),
        _span("grandchild", 6, 7, parent=2),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("parent", 0, 10), _span("a", 2, 6, parent=0), _span("b", 4, 8, parent=0)]
    assert tracing.self_times(spans)[0] == 4.0


def test_per_layer_names_match_benchmark_json():
    assert list(tracing.PER_LAYER) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert set(tracing.phase_metrics([])) == set(tracing.PER_LAYER)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload]
    argv += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert f"perfbench: {name} {metric['value']!r} {metric['unit']}" in lines
    if trace and workload == "evaluate_matrix":
        assert result["metrics"]["features.build_features.calls"]["value"] == 240
    if trace and workload == "identify_gbm":
        assert result["metrics"]["classifiers.gbm.fit.calls"]["value"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("identify_gbm", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
