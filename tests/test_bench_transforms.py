"""Smoke test of benchmarks/bench_transforms.py: its kernel and objective
rows run against the current helpers. The solver rows take tens of seconds
and are run by hand."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_transforms.py"


def test_bench_transforms_kernel_and_objective_rows_run(capsys):
    spec = importlib.util.spec_from_file_location("bench_transforms", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rng = np.random.default_rng(0)
    bench.kernels(10, rng)
    bench.objective(rng)
    rows = capsys.readouterr().out.splitlines()
    assert [r.split()[0] for r in rows if r.split() and r.split()[0].isdigit()] \
        == ["10", "8", "10", "14"]
