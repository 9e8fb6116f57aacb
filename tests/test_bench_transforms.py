"""Smoke tests of benchmarks/bench_transforms.py: its kernel and objective
rows run against the current helpers, and its solver, fresh-process,
oracle and I/O rows each end with one JSON line. The full solver rows (n = 8, 9,
10) take tens of seconds and are run by hand; the JSON tests run them at
n = 6."""

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


def test_bench_transforms_fresh_rows_end_with_one_json_line(capsys):
    load_bench().fresh_solves(ns=(6,))
    lines = capsys.readouterr().out.splitlines()
    rows = json.loads(lines[-1])
    printed = [line.split() for line in lines[:-1] if line.split()[:1] == ["6"]]
    assert [(r["n"], r["denoise"]) for r in rows] == [(6, False), (6, True)]
    for row, cells in zip(rows, printed, strict=True):
        assert set(row) == {"n", "denoise", "first_s", "peak_rss_mb", "scipy_modules"}
        assert cells[1] == str(row["denoise"])
        assert int(cells[4]) == len(row["scipy_modules"])
        assert row["first_s"] > 0 and row["peak_rss_mb"] > 0
        assert row["scipy_modules"] == ["scipy.optimize._highspy._core",
                                        "scipy.optimize._highspy._core.cb",
                                        "scipy.optimize._highspy._core.simplex_constants"]


def test_bench_transforms_oracle_rows_end_with_one_json_line(capsys):
    load_bench().oracle_rows(np.random.default_rng(0), ns=(6,))
    lines = capsys.readouterr().out.splitlines()
    rows = json.loads(lines[-1])
    printed = [line.split() for line in lines[:-1] if line.split()[:1] == ["6"]]
    assert [(r["n"], r["effects"]) for r in rows] == [(6, "sparse"), (6, "dense")]
    for row, cells in zip(rows, printed, strict=True):
        assert set(row) == {"n", "effects", "nonzero", "pairs", "first_s", "steady_s"}
        assert [str(row[k]) for k in ("effects", "nonzero", "pairs")] == cells[1:4]
        assert row["first_s"] > 0 and row["steady_s"] > 0
    # 15 order-3 effects have 2**3 supersets each; a dense set sums every
    # pair but those of the empty set's block
    assert [(r["nonzero"], r["pairs"]) for r in rows] == [(15, 15 * 8), (63, 3 ** 6 - 2 ** 6)]


def test_bench_transforms_io_rows_end_with_one_json_line(capsys):
    load_bench().io_rows(np.random.default_rng(0), ns=(6,))
    lines = capsys.readouterr().out.splitlines()
    rows = json.loads(lines[-1])
    printed = [line.split() for line in lines[:-1] if line.split()[:1] == ["6"]]
    assert [(r["n"], r["effects"]) for r in rows] == [(6, "sparse"), (6, "dense")]
    for row, cells in zip(rows, printed, strict=True):
        assert set(row) == {"n", "effects", "nonzero", "table_bytes", "effects_bytes",
                            "read_table_s", "write_table_s", "read_interactions_s",
                            "write_interactions_s"}
        assert [str(row[k]) for k in ("effects", "nonzero", "table_bytes",
                                      "effects_bytes")] == cells[1:5]
        assert min(row["read_table_s"], row["write_table_s"], row["read_interactions_s"],
                   row["write_interactions_s"]) > 0
    # 15 order-3 effects; a dense set has every slot but the two empty-set ones
    assert [r["nonzero"] for r in rows] == [15, 2 * 64 - 2]
    assert rows[0]["effects_bytes"] < rows[1]["effects_bytes"]
