"""Smoke runs of every workload through the command line."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(tmp_path, *args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seconds", "0",
         "--results", str(tmp_path / "results"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stderr
    assert out["failed"] == 0 and out["attempted"] > 0
    return out


def units(group: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[group]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_untraced(workload, tmp_path):
    out = result(run(tmp_path, "--workload", workload, "--seed", "3", "--trace", "0"))
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    out = result(run(tmp_path, "--workload", "char-typed", "--seed", "3", "--trace", "1"))
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == units("per_layer")
    # A wrapper that no longer sees any call would leave a NaN median.
    assert all(math.isfinite(v["value"]) and v["value"] > 0
               for v in out["metrics"].values()), out["metrics"]
    trace = json.loads((tmp_path / "results" / "char-typed-seed3-trace.json").read_text())
    assert trace["spans"] and set(trace["traced"]) == set(units("end_to_end"))


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, "--workload", "char-typed", "--seed", "3", "--trace", "0",
               cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
