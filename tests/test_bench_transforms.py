"""Smoke tests of benchmarks/bench_transforms.py: its kernel and objective
rows run against the current helpers, and its solver rows end with one JSON
line. The full solver rows (n = 8, 9, 10) take tens of seconds and are run
by hand; the JSON test runs them at n = 6."""

import importlib.util
import json
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_transforms.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_transforms", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_transforms_kernel_and_objective_rows_run(capsys):
    bench = load_bench()
    rng = np.random.default_rng(0)
    bench.kernels(10, rng)
    bench.objective(rng)
    rows = capsys.readouterr().out.splitlines()
    assert [r.split()[0] for r in rows if r.split() and r.split()[0].isdigit()] \
        == ["10", "8", "10", "14"]


def test_bench_transforms_solver_rows_end_with_one_json_line(capsys, huber_max_iters):
    huber_max_iters(20)
    load_bench().solvers(np.random.default_rng(0), ns=(6,))
    lines = capsys.readouterr().out.splitlines()
    rows = json.loads(lines[-1])
    printed = [line.split() for line in lines[:-1] if line.split()[:1] == ["6"]]
    assert [(r["table"], r["denoise"]) for r in rows] == [
        (table, denoise) for table in ("random", "net", "sparse") for denoise in (False, True)]
    for row, cells in zip(rows, printed, strict=True):
        assert set(row) == {"n", "denoise", "table", "nnz", "pivots", "path", "lp_s",
                            "huber_s", "sparsify_s", "lp_l1", "huber_l1"}
        assert (row["n"], row["path"]) == (6, "lp")
        assert [str(row[k]) for k in ("table", "denoise", "nnz")] == cells[1:4]
        assert row["pivots"] == int(cells[5]) and row["path"] == cells[10]
        assert min(row["lp_s"], row["huber_s"], row["sparsify_s"]) > 0
        assert row["lp_l1"] <= row["huber_l1"] * (1 + 1e-9)
