"""Tests of the benchmark itself: smoke runs, failure counting, count repeatability.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workload  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(name):
    res = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == len(workload.WORKLOADS[name])
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    res = bench("--workload", "figures", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "0",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


COUNTS = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"] + [
    "statevector.step_bytes", "evolve.states_held_mb"]


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_count_metrics_repeat_across_runs_and_seeds(name):
    setup = workload.set_up(workload.WORKLOADS[name])
    runs = [workload.run_workload(name, seed, 0.0, True, setup) for seed in (5, 5, 6)]
    assert all(r["failed"] == 0 for r in runs)
    first = runs[0]["layers"]
    for r in runs[1:]:
        assert {k: r["layers"][k] for k in COUNTS} == {k: first[k] for k in COUNTS}
    assert runs[1]["layers"]["runner.bytes_written"] == first["runner.bytes_written"]


def _corrupt(run, mutate):
    def corrupted(*args, **kwargs):
        result = run(*args, **kwargs)
        mutate(result.final_state.amps)
        return result
    return corrupted


def _scale(amps):
    amps *= 1.0 + 1e-6


def _leak(amps):
    """Move the largest amplitude onto its single-spin-flip partner: norm kept, parity broken."""
    k = int(np.argmax(np.abs(amps)))
    amps[k ^ 1] += amps[k]
    amps[k] = 0.0


@pytest.mark.parametrize("name, target, mutate, problem", [
    ("figures", "vortexprop.runner.run_trotter", _scale, "norm drift"),
    ("exact", "vortexprop.evolve.run_exact", _leak, "parity leak"),
])
def test_bad_states_count_as_failed_ops(monkeypatch, name, target, mutate, problem):
    setup = workload.set_up(workload.WORKLOADS[name])
    module, attr = target.rsplit(".", 1)
    mod = sys.modules[module]
    monkeypatch.setattr(mod, attr, _corrupt(getattr(mod, attr), mutate))
    res = workload.run_workload(name, 0, 0.0, False, setup)
    assert res["attempted"] == len(workload.WORKLOADS[name])
    assert res["failed"] == res["attempted"]
    assert all(problem in p for p in res["problems"] if "deviates" not in p)
    assert any(problem in p for p in res["problems"])


def test_trotter_reference_matches_the_exact_propagator_as_dt_shrinks():
    setup = workload.set_up(workload.WORKLOADS["exact"][:1])
    h = setup.systems["melon"].h
    exact = checks.reference(workload.Op("run_exact", "melon", 1 / 600, 0.2, 120), h, "10101010")
    errs = []
    for m in (300, 600):
        op = workload.Op("execute_run", "melon", 1 / m, 0.2, round(0.2 * m))
        errs.append(np.max(np.abs(checks.reference(op, h, "10101010").final - exact.final)))
    assert errs[1] < errs[0] / 1.8  # first-order Trotter error halves with dt
