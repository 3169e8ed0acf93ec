"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs one short round, untraced and traced, and must print
exactly the metrics ``BENCHMARK.json`` names with zero failed operations.
Without the walshlab sources the benchmark must fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from suite import compare_sets  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "atoms", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _result(wall, setup, failed=0):
    metrics = {"wall_s": wall, "setup_s": setup, "peak_rss_mib": 100.0}
    return {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v} for k, v in metrics.items()}}


def test_compare_sets_applies_bounds():
    steady = [_result(10.0 + 0.01 * i, 0.3) for i in range(10)]
    assert compare_sets(steady, steady, SPEC["end_to_end"])[0]
    slower = [_result(20.0 + 0.01 * i, 0.3) for i in range(10)]
    assert not compare_sets(steady, slower, SPEC["end_to_end"])[0]
    assert not compare_sets(slower, steady, SPEC["end_to_end"])[0]
    noisy_setup = [_result(10.0 + 0.01 * i, 0.3 * (1 + i % 2)) for i in range(10)]
    assert not compare_sets(noisy_setup, noisy_setup, SPEC["end_to_end"])[0]
    noisy = [_result(10.0 * (1 + i % 2), 0.3) for i in range(10)]
    assert not compare_sets(noisy, noisy, SPEC["end_to_end"])[0]
    failing = [_result(10.0 + 0.01 * i, 0.3, failed=1) for i in range(10)]
    assert not compare_sets(steady, failing, SPEC["end_to_end"])[0]
