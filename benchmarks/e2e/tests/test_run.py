"""The benchmark's contract with its driver, exercised on --smoke sizes."""

import json
import os
import subprocess
import sys

import pytest

import metrics
import selfcheck

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
RUN = os.path.join(E2E, "run.py")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        return json.load(source)


def _run(*arguments):
    done = subprocess.run(
        [sys.executable, RUN] + list(arguments), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )
    return done.returncode, done.stdout


def test_selfcheck_catches_every_planted_fault():
    assert selfcheck.run() == []
    code, out = _run("--selfcheck")
    assert code == 0
    assert out.count(" ok") == len(selfcheck.CHECKS)


def test_benchmark_json_is_the_catalogue():
    declared = _benchmark_json()
    assert declared == metrics.benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert "setup_s" in metrics.END_TO_END_NAMES
    assert len(set(metrics.PER_LAYER_NAMES)) == len(metrics.PER_LAYER_NAMES)
    assert max(entry["bound"] for entry in declared["end_to_end"]) <= 0.25


@pytest.mark.parametrize("workload", [name for name, _ in metrics.WORKLOADS])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_declared_metric(workload, trace):
    declared = _benchmark_json()
    code, out = _run("--workload", workload, "--seed", "12", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert code == 0, out
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    expected = {entry["name"]: entry["unit"] for entry in declared[kind]}
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name]
        assert isinstance(entry["value"], (int, float)), name
        if not trace:
            assert entry["value"] > 0, name
        # Every metric is also printed by name with its unit.
        assert any(line.split()[:1] == [name] for line in out.split("\n"))
