"""Smoke self-test: every workload, untraced and traced, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Keeps the harness from rotting: each run must finish, pass its output
checks and print exactly the metrics BENCHMARK.json declares, with the
declared units: every end-to-end metric untraced, every per-layer metric
traced, on every workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-2])["info"], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_passes_its_checks(results, workload, trace):
    info, result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"], info["problems"]
    assert result["failed"] == len(info["problems"]) == 0
    for name, metric in result["metrics"].items():
        assert UNITS.get(name) == metric["unit"], name
        assert metric["value"] is not None, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed(results, workload):
    assert set(results[workload, 0][1]["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(results[workload, 1][1]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_end_to_end_metrics_are_never_zero(results):
    for workload in WORKLOADS:
        for name, metric in results[workload, 0][1]["metrics"].items():
            assert metric["value"] != 0, (workload, name)


def test_records_digests_and_environment(results):
    info, _ = results["infer_eval", 0]
    assert {"training_log", "params", "predictions"} <= set(info["digests"])
    env = info["environment"]
    for key in ("git_revision", "python", "numpy", "openblas", "blas_threads", "nproc", "seed"):
        assert key in env
    assert int(env["blas_threads"]) <= env["nproc"]
    assert any(k.startswith("dataset_files") for k in results["synth_io", 0][0]["digests"])


def test_trace_accounts_for_the_wall_time(results):
    info, result = results["train_weak", 1]
    assert info["spans"] > 0
    assert 0.0 <= result["metrics"]["trace.untraced_share"]["value"] < 1.0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    done = _run(tmp_path, "synth_io", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
