"""Tests of the benchmark itself: its checks can fail, and every workload
runs end to end at a smoke size.

    python -m pytest andorbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from andor.cli import main as andor_main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sparse_outputs(tmp_path_factory):
    """Two criterion-4 games, extracted by the CLI, read back by the checks."""
    spec = workloads.SPECS[workloads.SPARSE]
    d = tmp_path_factory.mktemp("sparse")
    workloads.setup(spec, d, workloads.draw(spec, seed=0, samples=2), samples=2)
    for i in range(2):
        assert andor_main(["extract", "--in", str(workloads.table_dir(d, "games", i)),
                           "--out", str(d / "isets_games"), *spec.extract_args]) == 0
    tables = [checks.read_table(workloads.table_path(d, "games", i)) for i in range(2)]
    effects = [checks.read_effects(workloads.effects_path(d, "games", i)) for i in range(2)]
    truth_doc = json.loads((d / "ground_truth.json").read_text())
    truth = [{("and", m) for m, _ in g["and"]} | {("or", m) for m, _ in g["or"]}
             for g in truth_doc]
    values = np.stack([t[1] for t in tables], axis=1)
    bias = np.array([e[1] for e in effects])
    i_and = np.stack([e[2] for e in effects], axis=1)
    i_or = np.stack([e[3] for e in effects], axis=1)
    return values, bias, i_and, i_or, truth


def _reconstruction(values, bias, i_and, i_or):
    tol = 1e-8 * np.array([checks.scale_of(values[:, j]) for j in range(values.shape[1])])
    labels = [f"sample_{j}" for j in range(values.shape[1])]
    return checks.check_reconstruction(labels, 10, values, bias, i_and, i_or, tol)


def test_reconstruction_check_fails_on_an_effect_off_by_1e_6(sparse_outputs):
    values, bias, i_and, i_or, _ = sparse_outputs
    assert _reconstruction(values, bias, i_and, i_or) == []
    changed = i_and.copy()
    mask = int(np.flatnonzero(changed[:, 0])[0])
    changed[mask, 0] += 1e-6
    failures = _reconstruction(values, bias, changed, i_or)
    assert len(failures) == 1 and failures[0].startswith("sample_0:")


def test_support_check_fails_on_a_dropped_ground_truth_effect(sparse_outputs):
    values, _, i_and, i_or, truth = sparse_outputs
    games = [(values[:, j], i_and[:, j], i_or[:, j], truth[j]) for j in range(2)]
    assert checks.check_support(games) == []
    dropped = set(truth[0])
    dropped.pop()
    games[0] = (values[:, 0], i_and[:, 0], i_or[:, 0], dropped)
    assert checks.check_support(games) != []


def test_literal_sums_match_a_hand_example():
    # n=2: AND effect 2 on {1,2}, OR effect 3 on {1}, bias 1.
    i_and = np.array([0.0, 0.0, 0.0, 2.0])
    i_or = np.array([0.0, 3.0, 0.0, 0.0])
    h = checks.reconstruct(2, 1.0, i_and, i_or)
    assert h.tolist() == [1.0, 4.0, 1.0, 6.0]
    assert checks.all_and_effects(2, h).tolist() == [0.0, 3.0, 0.0, 2.0]


def test_self_similarity_check_fails_below_one():
    assert checks.check_self_similarity("x", {0: 1.0, 3: 1.0}) == []
    assert checks.check_self_similarity("x", {0: 1.0, 3: 0.999}) != []


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "andorbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_end_to_end_at_smoke_size(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--smoke"])
    result = _result(proc)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    env = json.loads(proc.stdout.strip().splitlines()[-2])["environment"]
    assert {"python", "numpy", "scipy", "nproc", "numba_importable",
            "blas_threads"} <= set(env)
    # Only the denoised workload's verifies fail: extract stores no delta.
    spec = workloads.SPECS[workload]
    if workload == workloads.TWO_NETS:
        rounds = json.loads(proc.stdout.strip().splitlines()[-2])["rounds"]
        tables = 2 * spec.smoke_samples
        assert result["failed"] == rounds * spec.passes * tables * tables
    else:
        assert result["failed"] == 0


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_run(["--workload", workloads.TWO_NETS, "--seed", "0",
                           "--seconds", "1", "--trace", "1", "--smoke"]))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    spec = workloads.SPECS[workloads.TWO_NETS]
    tables = 2 * spec.smoke_samples
    assert result["metrics"]["oracle.verify_calls"]["value"] == spec.passes * tables * tables
    assert result["metrics"]["extraction.sparsify_calls"]["value"] == tables


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "andorbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", workloads.SPARSE, "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
