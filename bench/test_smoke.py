"""Smoke test of the benchmark at tiny sizes.

Every metric named in BENCHMARK.json must come out for every workload, and
a deliberately wrong expected verdict must show up as failed jobs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (every workload, gated or not)


def _run(*extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "0", "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported(workload):
    plain = _run("--workload", workload, "--trace", "0")
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
        assert plain["metrics"][m["name"]]["value"] > 0
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    traced = _run("--workload", workload, "--trace", "1")
    assert traced["correct"] and traced["failed"] == 0
    assert {name: m["unit"] for name, m in traced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_verdict_fails(workload):
    result = _run("--workload", workload, "--wrong-expected")
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
