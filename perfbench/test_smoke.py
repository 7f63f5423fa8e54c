"""Smoke test of the benchmark: the smallest configuration of each workload,
untraced and traced, in a few seconds each.

    python3 -m pytest perfbench/test_smoke.py

It lives outside ``tests/`` so the repository's own test run does not
collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train-paper", "train-prosody", "eval-prosody"])
def test_smallest_configuration(workload, trace):
    proc = bench(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"], proc.stderr
    assert report["failed"] == 0 and report["attempted"] >= 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "train-paper", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
