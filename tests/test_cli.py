import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import andor
from andor import io as aio
from andor.cli import main
from andor.models import ValueTable

GOLDEN = Path(__file__).parent / "golden"
# Labels extract must refuse, by test id: reserved output names, or paths.
BAD_LABELS = {"batch": "batch", "ground_truth": "ground_truth", "slash": "a/b",
              "backslash": "a\\b", "dotdot": ".."}


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def pipeline(tmp_path):
    """Small deterministic synth -> extract pipeline shared by the CLI tests."""
    tabs = tmp_path / "tabs"
    isets = tmp_path / "isets"
    assert run("synth", "--out", tabs, "--n", "4", "--samples", "3", "--m", "4",
               "--orders", "2:1.0", "--seed", "11") == 0
    assert run("extract", "--in", tabs, "--out", isets,
               "--mode", "all-and", "--no-denoise") == 0
    return tmp_path, tabs, isets


def test_synth_deterministic(tmp_path):
    for d in ("a", "b"):
        run("synth", "--out", tmp_path / d, "--n", "4", "--samples", "2",
            "--m", "3", "--orders", "2:1.0", "--seed", "5")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_synth_overfit_fraction_marks_sidecar(tmp_path):
    run("synth", "--out", tmp_path, "--n", "10", "--samples", "10", "--m", "4",
        "--orders", "1:1.0", "--kinds", "and", "--seed", "2",
        "--overfit-fraction", "0.2", "--overfit-pairs", "3")
    doc = json.loads((tmp_path / "ground_truth.json").read_text())
    assert sum(s["injected"] for s in doc["samples"]) == 2


def test_synth_single_interaction_table(tmp_path):
    run("synth", "--out", tmp_path, "--n", "4", "--interaction", "and",
        "--mask", "0b0011", "--c", "3")
    doc = json.loads((tmp_path / "table_0000.json").read_text())
    assert doc["values"][0b0011] == 3.0
    assert doc["values"][0b0111] == 3.0
    assert doc["values"][0b0001] == 0.0


def test_extract_reruns_byte_identical(pipeline):
    tmp_path, tabs, isets = pipeline
    isets2 = tmp_path / "isets2"
    run("extract", "--in", tabs, "--out", isets2, "--mode", "all-and",
        "--no-denoise")
    for f in sorted(isets.iterdir()):
        assert f.read_bytes() == (isets2 / f.name).read_bytes()


def test_extract_empty_dir_exit_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("extract", "--in", empty, "--out", tmp_path / "o") == 2
    assert run("extract", "--in", tmp_path / "missing", "--out", tmp_path / "o") == 2


def test_extract_parse_failure_exit_2(tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "table_0000.json").write_text("{not json")
    assert run("extract", "--in", bad, "--out", tmp_path / "o") == 2


def test_report_schemas_match_golden(pipeline, tmp_path):
    _, tabs, isets = pipeline
    prof = tmp_path / "profile.csv"
    sim = tmp_path / "similarity.csv"
    cmp_ = tmp_path / "compare.csv"
    assert run("profile", "--in", isets, "--out", prof,
               "--tau-absolute", "0.05") == 0
    assert run("similarity", "--train", isets, "--test", isets,
               "--out", sim) == 0
    assert run("compare", "--a", isets, "--b", isets, "--out", cmp_,
               "--tau-absolute", "0.05") == 0
    assert prof.read_bytes() == (GOLDEN / "profile.csv").read_bytes()
    assert sim.read_bytes() == (GOLDEN / "similarity.csv").read_bytes()
    assert cmp_.read_bytes() == (GOLDEN / "compare.csv").read_bytes()


def test_table_and_interaction_documents_match_golden(pipeline):
    _, tabs, isets = pipeline
    assert (tabs / "table_0000.json").read_bytes() == \
        (GOLDEN / "table_0000.json").read_bytes()
    assert (isets / "sample_0000.json").read_bytes() == \
        (GOLDEN / "sample_0000.json").read_bytes()


def test_compare_identity_statistics(pipeline, tmp_path, capsys):
    _, tabs, isets = pipeline
    out = tmp_path / "c.csv"
    run("compare", "--a", isets, "--b", isets, "--out", out,
        "--tau-absolute", "0.05")
    rows = out.read_text().splitlines()
    assert rows[-3].startswith("#rank_correlation,1.0")
    assert rows[-2].startswith("#mean_abs_diagonal_gap,0.0")
    assert rows[-1].startswith("#overlap,1.0")


def test_diagnose_exit_codes(pipeline, tmp_path):
    _, tabs, isets = pipeline
    rc = run("diagnose", "--table", tabs / "table_0000.json",
             "--interactions", isets / "sample_0000.json",
             "--max-order", "4", "--out", tmp_path / "d.txt")
    assert rc in (0, 1)
    text = (tmp_path / "d.txt").read_text()
    assert "condition1_max_order_ok" in text
    assert "kappa_fit" in text


def test_axioms_command_passes(tmp_path):
    assert run("axioms", "--n", "4", "--trials", "30", "--seed", "1",
               "--out", tmp_path / "ax.txt") == 0
    text = (tmp_path / "ax.txt").read_text()
    assert text.count("pass") == 7


def test_oracle_verify_all_and_extraction(pipeline, capsys):
    _, tabs, isets = pipeline
    assert run("oracle", "verify", "--table", tabs / "table_0000.json",
               "--interactions", isets / "sample_0000.json") == 0


def test_oracle_verify_mismatch_exit_1(pipeline, capsys):
    _, tabs, isets = pipeline
    assert run("oracle", "verify", "--table", tabs / "table_0000.json",
               "--interactions", isets / "sample_0001.json") == 1


@pytest.mark.parametrize("argv", [
    ("oracle", "verify", "--table", "{tabs}/table_0000.json"),
    ("oracle", "verify", "--table", "{tabs}/missing.json",
     "--interactions", "{isets}/sample_0000.json"),
    ("oracle", "verify", "--table", "{wide}/table_0000.json",
     "--interactions", "{isets}/sample_0000.json"),
    ("synth", "--out", "{tabs}/more", "--orders", "2-1"),
    ("extract", "--in", "{dup}", "--out", "{dup}/out"),
    *(("extract", "--in", f"{{labelled}}/{name}", "--out", f"{{labelled}}/{name}/out")
      for name in BAD_LABELS),
], ids=["verify-without-interactions", "verify-missing-table",
        "verify-size-mismatch", "synth-bad-orders", "extract-duplicate-labels",
        *(f"extract-label-{name}" for name in BAD_LABELS)])
def test_malformed_input_exit_2_without_traceback(pipeline, argv):
    tmp_path, tabs, isets = pipeline
    wide = tmp_path / "wide"
    assert run("synth", "--out", wide, "--n", "5", "--m", "2", "--orders", "2:1.0") == 0
    dup = tmp_path / "dup"      # two tables that share the label sample_0000
    dup.mkdir()
    for name in ("a.json", "b.json"):
        (dup / name).write_bytes((tabs / "table_0000.json").read_bytes())
    labelled = tmp_path / "labelled"    # one table per reserved or unsafe label
    table = json.loads((tabs / "table_0000.json").read_text())
    for name, label in BAD_LABELS.items():
        (labelled / name).mkdir(parents=True)
        (labelled / name / "table.json").write_text(json.dumps({**table, "label": label}))
    args = [a.format(tabs=tabs, isets=isets, wide=wide, dup=dup, labelled=labelled)
            for a in argv]
    src = str(Path(andor.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "andor.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not any(labelled.glob("*/out"))      # rejected before writing


def _dense_table(directory, n):
    rng = np.random.default_rng(n)
    directory.mkdir()
    aio.write_table(ValueTable(n=n, values=rng.normal(size=1 << n), label="sample_0000"),
                    directory / "table_0000.json")


@pytest.mark.parametrize("n, table, solver", [
    (9, "sparse", "lp"), (10, "sparse", "lp"), (11, "sparse", "huber"),
    (10, "dense", "huber")])
def test_extract_records_the_solver(tmp_path, n, table, solver):
    """The solver that ran: a dense n=10 table exhausts the LP's pivot budget."""
    tabs, isets = tmp_path / "tabs", tmp_path / "isets"
    if table == "dense":
        _dense_table(tabs, n)
    else:
        assert run("synth", "--out", tabs, "--n", n, "--m", "3", "--orders", "2:1.0") == 0
    assert run("extract", "--in", tabs, "--out", isets, "--no-denoise",
               "--max-iters", "5") == 0
    batch = json.loads((isets / "batch.json").read_text())
    assert batch["solver"] == {"sample_0000": solver}
    assert set(batch["loss_history"]) == set(batch["solver"])


def test_cli_import_leaves_out_scipy_stats():
    src = str(Path(andor.__file__).resolve().parents[1])
    code = "import sys, andor.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "False\n"
