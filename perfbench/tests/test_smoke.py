"""Smoke test of the benchmark harness at tiny size.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_driver(cwd, workload="transient-fit", trace=0):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def run_block(workload, tmp_path, seed=3):
    tracer = harness.Tracer(True)
    recorder = harness.Recorder(tracer, workload.calibration)
    workload(seed, tracer, recorder, str(tmp_path)).run_block()
    return recorder.summary()


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, kind):
    proc = run_driver(ROOT, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_driver(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_corrupted_fit_is_counted_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "BIN_MIX", {500: 1})
    clean = run_block(workloads.TransientFit, tmp_path)
    assert (clean["attempted"], clean["failed"]) == (3, 0)

    real = workloads.transient.fit_lifetime

    def skewed(*args, **kwargs):
        fit = real(*args, **kwargs)
        return dataclasses.replace(fit, lifetime_us=1.5 * fit.lifetime_us)

    monkeypatch.setattr(workloads.transient, "fit_lifetime", skewed)
    corrupted = run_block(workloads.TransientFit, tmp_path)
    # Both fits fail their 5-sigma check, so the kinetics op never runs.
    assert (corrupted["attempted"], corrupted["failed"]) == (2, 2)


def test_corrupted_sweep_rows_are_counted_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SWEEP_POINTS", dict.fromkeys(workloads.SWEEP_POINTS, 8))
    monkeypatch.setattr(workloads, "BELOW_RANGE_POINTS", 2)
    monkeypatch.setattr(workloads, "RATE_SCAN_PASSES", 1)
    assert run_block(workloads.RateScan, tmp_path)["failed"] == 0

    real = workloads.rates.rate_sweep

    def doubled(*args, **kwargs):
        return [dataclasses.replace(p, rate=2 * p.rate) if p.error is None else p
                for p in real(*args, **kwargs)]

    monkeypatch.setattr(workloads.rates, "rate_sweep", doubled)
    summary = run_block(workloads.RateScan, tmp_path)
    # Every scan op has an in-range breakdown that now differs from its row.
    assert (summary["attempted"], summary["failed"]) == (17 + 2, 16)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS.values()))
def test_inputs_follow_the_seed(workload, tmp_path):
    def digest(seed):
        tracer = harness.Tracer(False)
        recorder = harness.Recorder(tracer, workload.calibration)
        return workloads.inputs_digest(workload(seed, tracer, recorder, str(tmp_path)))

    assert digest(5) == digest(5) != digest(6)
