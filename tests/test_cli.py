import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import andor
from andor import io as aio
from andor.cli import build_parser, main
from andor.metrics import order_profile
from andor.models import MaskingScheme, TinyNet, ValueTable, net_value_table
from test_acceptance import recovery_game
from test_extraction import lp_vertex

GOLDEN = Path(__file__).parent / "golden"
# Labels extract must refuse, by test id: reserved output names, or paths.
BAD_LABELS = {"batch": "batch", "ground_truth": "ground_truth", "slash": "a/b",
              "backslash": "a\\b", "dotdot": ".."}
# Out-of-range flag values the CLI rejects itself, by test id: the error
# line names the flag.
NAMED_FLAGS = {"axioms-n": "--n", "axioms-n-zero": "--n", "axioms-n-one": "--n",
               "synth-samples": "--samples", "synth-overfit-fraction": "--overfit-fraction",
               "synth-negative-m": "--m", "synth-negative-overfit-pairs": "--overfit-pairs",
               "synth-overfit-min-order-zero": "--overfit-min-order",
               "synth-orders-nan": "--orders", "synth-orders-inf": "--orders",
               "synth-orders-negative": "--orders"}


# Every subcommand's arguments and their choices (None: any value). A new
# option, or a removed one, is a change to this table.
CLI_SURFACE = {
    "synth": {"--out": None, "--n": None, "--samples": None, "--m": None,
              "--orders": None, "--effect-range": None, "--magnitude-floor": None,
              "--kinds": None, "--antichain": None, "--seed": None,
              "--overfit-fraction": None, "--overfit-min-order": None,
              "--overfit-pairs": None, "--overfit-magnitude": None,
              "--interaction": ["and", "or"], "--mask": None, "--c": None},
    "extract": {"--in": None, "--out": None, "--mode": ["sparsify", "all-and"],
                "--no-denoise": None},
    "profile": {"--in": None, "--out": None, "--tau-absolute": None},
    "similarity": {"--train": None, "--test": None, "--out": None,
                   "--tau-absolute": None},
    "compare": {"--a": None, "--b": None, "--out": None, "--tau-absolute": None,
                "--theta": None},
    "diagnose": {"--table": None, "--interactions": None, "--tau-absolute": None,
                 "--tau-fraction": None, "--max-order": None, "--out": None},
    "axioms": {"--n": None, "--trials": None, "--seed": None, "--out": None},
    "oracle": {"action": ["verify"], "--table": None, "--interactions": None},
}


def run(*argv):
    return main([str(a) for a in argv])


def surface(parser):
    """Every subcommand's option strings (or positional name) and choices."""
    commands, = (a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    return {name: {"/".join(a.option_strings) or a.dest: a.choices
                   for a in sub._actions if a.dest != "help"}
            for name, sub in commands.items()}


def test_cli_surface_is_pinned():
    assert surface(build_parser()) == CLI_SURFACE


def fresh_process(*argv):
    """Run the CLI in a new interpreter that imports andor from this checkout."""
    src = str(Path(andor.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "andor.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env)


def test_main_parses_with_one_parser_across_calls(monkeypatch, tmp_path):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **k: parsers.append(self) or parse_args(self, *a, **k))
    for argv in (["axioms", "--n", "2", "--trials", "1"], ["extract"],
                 ["synth", "--out", tmp_path, "--n", "3", "--m", "1", "--orders", "1:1.0"]):
        with contextlib.suppress(SystemExit):
            run(*argv)
    assert len(parsers) == 3 and len(set(map(id, parsers))) == 1
    assert surface(parsers[0]) == CLI_SURFACE


def test_extract_after_no_denoise_denoises(tmp_path):
    """A flag of one call does not carry over to the next in the same process."""
    tabs = tmp_path / "tabs"
    _dense_table(tabs, 4)
    assert run("extract", "--in", tabs, "--out", tmp_path / "raw", "--no-denoise") == 0
    assert run("extract", "--in", tabs, "--out", tmp_path / "denoised") == 0
    assert fresh_process("extract", "--in", tabs, "--out", tmp_path / "fresh").returncode == 0
    names = sorted(f.name for f in (tmp_path / "fresh").iterdir())
    assert names == ["batch.json", "sample_0000.json"]
    for name in names:
        denoised = (tmp_path / "denoised" / name).read_bytes()
        assert denoised == (tmp_path / "fresh" / name).read_bytes()
    assert (tmp_path / "raw" / "sample_0000.json").read_bytes() != denoised


def test_compare_after_theta_uses_the_default_theta(tmp_path):
    """At the default theta = n / 2 = 2 each net flags the sample with the
    order-2 effect, and the two flags miss each other; at theta = 3 neither
    net flags one."""
    for pop, order2 in (("a", "s0"), ("b", "s1")):
        (tmp_path / pop).mkdir()
        for label in ("s0", "s1"):
            mask = 0b0011 if label == order2 else 0b0001
            (tmp_path / pop / f"{label}.json").write_text(json.dumps(
                {"n": 4, "label": label, "bias": 0.0, "or": [],
                 "and": [{"mask": mask, "value": 1.0}]}))

    def overlap(out):
        return dict(line.split(",")[:2] for line in out.read_text().splitlines())["#overlap"]

    args = ("compare", "--a", tmp_path / "a", "--b", tmp_path / "b", "--out")
    assert run(*args, tmp_path / "theta3.csv", "--theta", "3") == 0
    assert run(*args, tmp_path / "default.csv") == 0
    assert (overlap(tmp_path / "theta3.csv"), overlap(tmp_path / "default.csv")) == \
        ("1.0", "0.0")


def test_usage_error_leaves_the_next_call_intact(pipeline, capsys):
    _, tabs, isets = pipeline
    for argv in (["extract"], ["compare", "--a", isets, "--b", isets,
                               "--out", tabs / "c.csv", "--theta", "x"]):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
    capsys.readouterr()
    assert run("oracle", "verify", "--table", tabs / "table_0000.json",
               "--interactions", isets / "sample_0000.json") == 0
    assert capsys.readouterr().out.startswith("max_abs_error: ")


def build_pipeline(root):
    """Small deterministic synth -> extract pipeline under root."""
    tabs = root / "tabs"
    isets = root / "isets"
    assert run("synth", "--out", tabs, "--n", "4", "--samples", "3", "--m", "4",
               "--orders", "2:1.0", "--seed", "11") == 0
    assert run("extract", "--in", tabs, "--out", isets,
               "--mode", "all-and", "--no-denoise") == 0
    return root, tabs, isets


@pytest.fixture
def pipeline(tmp_path):
    """The pipeline of build_pipeline, shared by the CLI tests."""
    return build_pipeline(tmp_path)


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


def test_default_tau_counts_tiny_effects_and_skips_exact_zeros(tmp_path):
    # tiny: one order-3 AND effect of 1e-300; zeros: explicit 0.0 entries only
    isets = tmp_path / "isets"
    isets.mkdir()
    for label, value in (("tiny", 1e-300), ("zeros", 0.0)):
        entries = [{"mask": m, "value": value if m == 0b0111 else 0.0}
                   for m in (0b0001, 0b0111)]
        (isets / f"{label}.json").write_text(json.dumps(
            {"n": 4, "label": label, "bias": 0.0, "and": entries, "or": []}))
    prof = tmp_path / "profile.csv"
    cmp_ = tmp_path / "compare.csv"
    assert run("profile", "--in", isets, "--out", prof) == 0
    assert run("compare", "--a", isets, "--b", isets, "--out", cmp_) == 0
    rows = prof.read_text().splitlines()
    assert rows[3] == "tiny,3,1e-300,0.0,0.0"
    assert all(r.endswith(",0.0,0.0,0.0") for r in rows[1:] if r != rows[3])
    # the tiny sample has eta 3; the all-zero one has no defined eta
    assert cmp_.read_text().splitlines()[1:2] == ["tiny,3.0,3.0"]
    assert not any(r.startswith("zeros") for r in cmp_.read_text().splitlines())
    # the salient counts behind both commands, at their default tau
    for argv in (["profile", "--in", isets, "--out", prof],
                 ["compare", "--a", isets, "--b", isets, "--out", cmp_]):
        tau = build_parser().parse_args([str(a) for a in argv]).tau_absolute
        counts = [order_profile(aio.read_interactions(isets / f"{label}.json"),
                                tau).salient_count for label in ("tiny", "zeros")]
        assert counts == [1, 0]


def test_diagnose_exit_codes(pipeline, tmp_path):
    _, tabs, isets = pipeline
    rc = run("diagnose", "--table", tabs / "table_0000.json",
             "--interactions", isets / "sample_0000.json",
             "--max-order", "4", "--out", tmp_path / "d.txt")
    assert rc in (0, 1)
    text = (tmp_path / "d.txt").read_text()
    assert "condition1_max_order_ok" in text
    assert "kappa_fit" in text


def test_diagnose_n1_kappa_fit_undefined(tmp_path):
    tabs, isets = tmp_path / "tabs", tmp_path / "isets"
    assert run("synth", "--out", tabs, "--n", "1", "--m", "1", "--orders", "1:1.0") == 0
    assert run("extract", "--in", tabs, "--out", isets, "--mode", "all-and") == 0
    assert run("diagnose", "--table", tabs / "table_0000.json",
               "--interactions", isets / "sample_0000.json", "--max-order", "1",
               "--out", tmp_path / "d.txt") == 0
    assert "kappa_fit: undefined\n" in (tmp_path / "d.txt").read_text()


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


@pytest.fixture(scope="module")
def malformed_inputs(tmp_path_factory):
    """The read-only inputs of the malformed-input cases, built once: the
    pipeline, an n = 5 one beside it, and the broken directories."""
    tmp_path, tabs, isets = build_pipeline(tmp_path_factory.mktemp("malformed"))
    wide = tmp_path / "wide"
    assert run("synth", "--out", wide, "--n", "5", "--m", "2", "--orders", "2:1.0") == 0
    assert run("extract", "--in", wide, "--out", wide / "isets", "--mode", "all-and") == 0
    mixed = tmp_path / "mixed"   # n = 4 and n = 5 files side by side
    for kind, name, narrow, broad in (("tabs", "table_0000.json", tabs, wide),
                                      ("isets", "sample_0000.json", isets, wide / "isets")):
        (mixed / kind).mkdir(parents=True)
        (mixed / kind / "a.json").write_bytes((narrow / name).read_bytes())
        doc = json.loads((broad / name).read_text())
        (mixed / kind / "b.json").write_text(json.dumps({**doc, "label": "wide"}))
    (mixed / "other").mkdir()    # an n = 4 effect file under a label isets lacks
    effects = json.loads((isets / "sample_0000.json").read_text())
    (mixed / "other" / "x.json").write_text(json.dumps({**effects, "label": "other"}))
    for name, entries in (("nan", [float("nan")]), ("inf", [float("inf")]),
                          ("repeated", [1.0, 2.0])):  # mask 1 listed twice
        (mixed / name).mkdir()
        (mixed / name / "x.json").write_text(
            json.dumps({**effects, "and": [{"mask": 1, "value": x} for x in entries]}))
    (mixed / "huge").mkdir()    # finite n = 3 values whose effects overflow float64
    aio.write_table(ValueTable(n=3, values=[(-1.7e308, 1.7e308)[m.bit_count() % 2]
                                            for m in range(8)]),
                    mixed / "huge" / "table_0000.json")
    dup = tmp_path / "dup"      # two tables that share the label sample_0000
    dup.mkdir()
    for name in ("a.json", "b.json"):
        (dup / name).write_bytes((tabs / "table_0000.json").read_bytes())
    labelled = tmp_path / "labelled"    # one table per reserved or unsafe label
    table = json.loads((tabs / "table_0000.json").read_text())
    for name, label in BAD_LABELS.items():
        (labelled / name).mkdir(parents=True)
        (labelled / name / "table.json").write_text(json.dumps({**table, "label": label}))
    return dict(tabs=tabs, isets=isets, wide=wide, dup=dup, labelled=labelled, mixed=mixed)


@pytest.mark.parametrize("argv", [
    ("oracle", "verify", "--table", "{tabs}/table_0000.json"),
    ("oracle", "verify", "--table", "{tabs}/missing.json",
     "--interactions", "{isets}/sample_0000.json"),
    ("oracle", "verify", "--table", "{wide}/table_0000.json",
     "--interactions", "{isets}/sample_0000.json"),
    ("synth", "--out", "{out}/more", "--orders", "2-1"),
    ("extract", "--in", "{dup}", "--out", "{out}/out"),
    *(("extract", "--in", f"{{labelled}}/{name}", "--out", f"{{out}}/{name}")
      for name in BAD_LABELS),
    ("extract", "--in", "{mixed}/tabs", "--out", "{out}/out"),
    ("profile", "--in", "{mixed}/isets", "--out", "{out}/p.csv"),
    ("similarity", "--train", "{isets}", "--test", "{wide}/isets", "--out", "{out}/s.csv"),
    ("compare", "--a", "{isets}", "--b", "{mixed}/isets", "--out", "{out}/c.csv"),
    ("compare", "--a", "{isets}", "--b", "{wide}/isets", "--out", "{out}/c.csv"),
    ("compare", "--a", "{isets}", "--b", "{mixed}/other", "--out", "{out}/c.csv"),
    # flag values the library rejects
    ("diagnose", "--table", "{tabs}/table_0000.json",
     "--interactions", "{isets}/sample_0000.json", "--max-order", "9"),
    *(("diagnose", "--table", "{tabs}/table_0000.json",
       "--interactions", "{isets}/sample_0000.json", flag, value)
      for flag in ("--tau-absolute", "--tau-fraction") for value in ("-1", "nan")),
    ("synth", "--out", "{out}/synth", "--n", "4", "--m", "2", "--kinds", "xor"),
    ("diagnose", "--table", "{tabs}/table_0000.json",
     "--interactions", "{isets}/sample_0000.json", "--max-order", "-1"),
    ("compare", "--a", "{isets}", "--b", "{isets}", "--out", "{out}/c.csv",
     "--theta", "nan"),
    ("profile", "--in", "{isets}", "--out", "{out}/p.csv", "--tau-absolute", "-1"),
    ("profile", "--in", "{isets}", "--out", "{out}/p.csv", "--tau-absolute", "nan"),
    ("similarity", "--train", "{isets}", "--test", "{isets}", "--out", "{out}/s.csv",
     "--tau-absolute", "-1"),
    ("compare", "--a", "{isets}", "--b", "{isets}", "--out", "{out}/c.csv",
     "--tau-absolute", "-1"),
    # effects that are not finite: overflowing transforms, NaN or inf in a file
    *(("extract", "--in", "{mixed}/huge", "--out", "{out}/out", *flags)
      for flags in (("--mode", "all-and"), ("--no-denoise",), ())),
    *(("profile", "--in", f"{{mixed}}/{name}", "--out", "{out}/p.csv")
      for name in ("nan", "inf", "repeated")),
    ("axioms", "--n", "9"),
    ("axioms", "--n", "0"),
    ("axioms", "--n", "1"),
    ("axioms", "--trials", "0"),
    *(("synth", "--out", "{out}/synth", "--n", n, *flags) for n, flags in (
        ("4", ("--m", "500")), ("4", ("--orders", "7:1")),
        ("4", ("--interaction", "and", "--mask", "99")), ("4", ("--effect-range", "-1")),
        ("4", ("--overfit-fraction", "2")), ("4", ("--samples", "-1")),
        ("4", ("--m", "-1")),
        ("4", ("--overfit-fraction", "0.5", "--samples", "2", "--overfit-pairs", "-1")),
        ("4", ("--overfit-fraction", "0.5", "--samples", "2", "--overfit-min-order", "0")),
        ("25", ()), ("25", ("--interaction", "or")),
        # more effects than distinct (kind, T) slots, or than antichain masks
        ("2", ("--m", "3", "--orders", "1:1.0", "--kinds", "and,and")),
        ("4", ("--m", "7", "--orders", "2:1.0", "--antichain")),
        ("4", ("--orders", "2:nan")), ("4", ("--orders", "2:0.5,3:inf")),
        ("4", ("--orders", "2:-1")))),
    # output paths that cannot be written: an existing file, a missing directory
    ("extract", "--in", "{tabs}", "--out", "{tabs}/table_0000.json", "--mode", "all-and"),
    ("profile", "--in", "{isets}", "--out", "{out}/missing/p.csv"),
    ("similarity", "--train", "{isets}", "--test", "{isets}", "--out", "{out}/missing/s.csv"),
    ("compare", "--a", "{isets}", "--b", "{isets}", "--out", "{out}/missing/c.csv"),
    ("diagnose", "--table", "{tabs}/table_0000.json",
     "--interactions", "{isets}/sample_0000.json", "--out", "{out}/missing/d.txt"),
    ("axioms", "--n", "2", "--trials", "1", "--out", "{out}/missing/a.txt"),
], ids=["verify-without-interactions", "verify-missing-table",
        "verify-size-mismatch", "synth-bad-orders", "extract-duplicate-labels",
        *(f"extract-label-{name}" for name in BAD_LABELS),
        "extract-mixed-n", "profile-mixed-n", "similarity-mixed-n", "compare-mixed-n-dir",
        "compare-mixed-n-across", "compare-no-shared-label",
        "diagnose-max-order", "diagnose-negative-tau", "diagnose-nan-tau",
        "diagnose-negative-tau-fraction", "diagnose-nan-tau-fraction",
        "synth-kinds", "diagnose-negative-max-order", "compare-nan-theta",
        "profile-negative-tau", "profile-nan-tau", "similarity-negative-tau",
        "compare-negative-tau",
        "extract-overflow-all-and", "extract-overflow-no-denoise",
        "extract-overflow-denoise", "profile-nan-effect", "profile-inf-effect",
        "profile-repeated-mask",
        "axioms-n", "axioms-n-zero", "axioms-n-one", "axioms-trials", "synth-m",
        "synth-orders", "synth-mask", "synth-effect-range", "synth-overfit-fraction",
        "synth-samples", "synth-negative-m", "synth-negative-overfit-pairs",
        "synth-overfit-min-order-zero", "synth-n-above-max", "synth-interaction-n-above-max",
        "synth-duplicate-kinds", "synth-antichain-full",
        "synth-orders-nan", "synth-orders-inf", "synth-orders-negative",
        "extract-out-is-a-file", "profile-out-dir-missing", "similarity-out-dir-missing",
        "compare-out-dir-missing", "diagnose-out-dir-missing", "axioms-out-dir-missing"])
def test_malformed_input_exit_2_without_traceback(malformed_inputs, tmp_path, argv, request):
    args = [a.format(out=tmp_path, **malformed_inputs) for a in argv]
    proc = fresh_process(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    # rejected before writing
    assert not any((tmp_path / name).exists() for name in BAD_LABELS)
    flag = NAMED_FLAGS.get(request.node.callspec.id)
    assert flag is None or proc.stderr.startswith(f"error: {flag} must be ")


def _dense_table(directory, n):
    rng = np.random.default_rng(n)
    directory.mkdir()
    aio.write_table(ValueTable(n=n, values=rng.normal(size=1 << n), label="sample_0000"),
                    directory / "table_0000.json")


@pytest.mark.parametrize("n, table, solver", [
    (9, "sparse", "lp"), (10, "sparse", "lp"), (11, "sparse", "huber"),
    (10, "dense", "huber")])
def test_extract_records_the_solver(tmp_path, huber_max_iters, n, table, solver):
    """The solver that ran: a dense n=10 table exhausts the LP's pivot budget."""
    huber_max_iters(5)
    tabs, isets = tmp_path / "tabs", tmp_path / "isets"
    if table == "dense":
        _dense_table(tabs, n)
    else:
        assert run("synth", "--out", tabs, "--n", n, "--m", "3", "--orders", "2:1.0") == 0
    assert run("extract", "--in", tabs, "--out", isets, "--no-denoise") == 0
    batch = json.loads((isets / "batch.json").read_text())
    assert batch["solver"] == {"sample_0000": solver}
    assert set(batch["loss_history"]) == set(batch["solver"])


def test_unlabeled_table_is_keyed_by_its_file_name(tmp_path):
    tabs, isets = tmp_path / "tabs", tmp_path / "isets"
    tabs.mkdir()
    aio.write_table(ValueTable(n=3, values=np.arange(8.0) ** 2), tabs / "t.json")
    assert run("extract", "--in", tabs, "--out", isets) == 0
    assert sorted(f.name for f in isets.iterdir()) == ["batch.json", "table.json"]
    batch = json.loads((isets / "batch.json").read_text())
    assert batch["solver"] == {"table": "lp"}
    assert set(batch["loss_history"]) == {"table"}


def test_cli_import_leaves_out_scipy_stats(pipeline):
    """No scipy module loads with the CLI, nor in the commands that do not solve."""
    tmp_path, tabs, isets = pipeline
    table, effects = tabs / "table_0000.json", isets / "sample_0000.json"
    commands = [
        ["profile", "--in", isets, "--out", tmp_path / "p.csv"],
        ["similarity", "--train", isets, "--test", isets, "--out", tmp_path / "s.csv"],
        ["compare", "--a", isets, "--b", isets, "--out", tmp_path / "c.csv"],
        ["oracle", "verify", "--table", table, "--interactions", effects],
        ["diagnose", "--table", table, "--interactions", effects, "--out", tmp_path / "d.txt"],
    ]
    code = "\n".join([
        "import sys, andor.cli",
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "print(scipy())",
        f"for argv in {[[str(a) for a in c] for c in commands]!r}:",
        "    assert andor.cli.main(argv) in (0, 1), argv",
        "print(scipy())"])
    src = str(Path(andor.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_huber_stage_calls_the_bound_minimize(monkeypatch, huber_max_iters):
    """extraction.minimize loads scipy's on first access, and the Huber stage
    calls whatever the attribute is bound to, as a tracer rebinds it."""
    import andor.extraction as extraction
    from scipy.optimize import minimize
    assert extraction.minimize is minimize
    calls = []
    monkeypatch.setattr(extraction, "minimize",
                        lambda *a, **k: calls.append(1) or minimize(*a, **k))
    huber_max_iters(3)
    v = ValueTable(n=11, values=np.random.default_rng(3).normal(size=1 << 11))
    assert extraction.sparsify(v, denoise=False)[0].solver == "huber"
    assert len(calls) == len(extraction.SMOOTHING_STAGES)
    with pytest.raises(AttributeError):
        extraction.linprog


# Each property-test case: the file it breaks and the command line, where
# {bad} is the broken file, {bad_dir} a directory holding it beside an
# intact file of its kind, and {table}, {effects}, {isets} intact inputs.
BROKEN_INPUT_COMMANDS = {
    "extract": ("table", ["extract", "--in", "{bad_dir}", "--out", "{out}"]),
    "diagnose-table": ("table", ["diagnose", "--table", "{bad}", "--interactions", "{effects}"]),
    "verify-table": ("table", ["oracle", "verify", "--table", "{bad}",
                               "--interactions", "{effects}"]),
    "profile": ("effects", ["profile", "--in", "{bad_dir}", "--out", "{out}.csv"]),
    "similarity": ("effects", ["similarity", "--train", "{isets}", "--test", "{bad_dir}",
                               "--out", "{out}.csv"]),
    "compare": ("effects", ["compare", "--a", "{bad_dir}", "--b", "{isets}",
                            "--out", "{out}.csv"]),
    "diagnose-effects": ("effects", ["diagnose", "--table", "{table}",
                                     "--interactions", "{bad}"]),
    "verify-effects": ("effects", ["oracle", "verify", "--table", "{table}",
                                   "--interactions", "{bad}"]),
}
# The JSON types each field must have (a bool is no number); the fields a
# document cannot do without.
FIELD_TYPES = {"n": (int,), "values": (list,), "bias": (int, float), "and": (list,),
               "or": (list,), "label": (str,), "mask": (int,), "value": (int, float)}
REQUIRED = {"table": ("n", "values"), "effects": ("n", "bias", "and", "or")}
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.lists(st.integers(), max_size=2), st.just({}))


@st.composite
def broken_document(draw, kind, doc):
    """The text of ``doc`` truncated, with a required key deleted, or with
    one field (or one list element) of the wrong JSON type."""
    how = draw(st.sampled_from(["truncate", "delete", "retype"]))
    if how == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(json.dumps(doc))
    lists = ["values"] if kind == "table" else ["and", "or"]
    if how == "delete":
        # a required key, or the mask or value of one effect entry
        target = draw(st.sampled_from(
            [None, *(k for k in lists if kind == "effects" and doc[k])]))
        if target is None:
            del doc[draw(st.sampled_from(REQUIRED[kind]))]
        else:
            del doc[target][draw(st.integers(0, len(doc[target]) - 1))][
                draw(st.sampled_from(["mask", "value"]))]
        return json.dumps(doc)
    key = draw(st.sampled_from([*REQUIRED[kind], "label"]))
    if key in lists and doc[key] and draw(st.booleans()):
        # one element of the list: a number, or an entry's mask or value
        j = draw(st.integers(0, len(doc[key]) - 1))
        holder, key = (doc[key], j) if kind == "table" else \
            (doc[key][j], draw(st.sampled_from(["mask", "value"])))
        allowed = FIELD_TYPES["value" if kind == "table" else key]
    else:
        holder, allowed = doc, FIELD_TYPES[key]
    holder[key] = draw(JSON_VALUES.filter(lambda x: type(x) not in allowed))
    return json.dumps(doc)


@pytest.fixture(scope="module")
def intact_inputs(tmp_path_factory):
    """Two n = 3 tables and their all-AND effect files."""
    root = tmp_path_factory.mktemp("intact")
    assert run("synth", "--out", root / "tabs", "--n", "3", "--samples", "2", "--m", "3",
               "--orders", "2:1.0", "--seed", "4") == 0
    assert run("extract", "--in", root / "tabs", "--out", root / "isets",
               "--mode", "all-and") == 0
    return root


@pytest.mark.parametrize("case", BROKEN_INPUT_COMMANDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_broken_files_exit_2_with_one_error_line(intact_inputs, case, data):
    kind, argv = BROKEN_INPUT_COMMANDS[case]
    root = intact_inputs
    intact = {"table": root / "tabs" / "table_0000.json",
              "effects": root / "isets" / "sample_0000.json"}
    text = data.draw(broken_document(kind, json.loads(intact[kind].read_text())))
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        bad_dir = Path(scratch) / "bad"
        bad_dir.mkdir()
        (bad_dir / "a.json").write_bytes(intact[kind].read_bytes())
        (bad_dir / "b.json").write_text(text)
        args = [a.format(bad=bad_dir / "b.json", bad_dir=bad_dir, out=Path(scratch) / "out",
                         table=intact["table"], effects=intact["effects"],
                         isets=root / "isets") for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(args)
    assert rc == 2, text
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _two_nets_tables(root, seed, samples=4, n=8):
    """Tables of the paper's experiment under root/a and root/b: a TinyNet and
    a copy whose first-layer weights are drawn afresh, scoring the same
    ``samples`` inputs drawn from ``seed`` against a zero baseline."""
    widths = [n, 32, 32, 2]
    net_a = TinyNet.random(widths, rng_seed=2502)
    first = TinyNet.random(widths, rng_seed=2503).weights[0]
    net_b = TinyNet([first, *net_a.weights[1:]], list(net_a.biases))
    x = np.random.default_rng(seed).normal(size=(samples, n))
    for pop, net in (("a", net_a), ("b", net_b)):
        (root / pop).mkdir(parents=True)
        for i in range(samples):
            v = net_value_table(net, MaskingScheme(x[i], np.zeros(n)), label=f"sample_{i:04d}")
            aio.write_table(v, root / pop / f"table_{i:04d}.json")


@pytest.mark.parametrize("table", ["game_0", "game_1", "game_2", "net_denoised"])
def test_sparsify_files_hold_only_the_lp_support(tmp_path, table):
    """Criterion-4 games (n = 10, no denoising) and a denoised n = 8 net table:
    every written effect lies on the LP vertex's support."""
    tabs = tmp_path / "tabs"
    if table == "net_denoised":
        _two_nets_tables(tmp_path / "nets", seed=3, samples=1)
        tabs = tmp_path / "nets" / "a"
        v = aio.read_table(tabs / "table_0000.json")
    else:
        v = recovery_game(int(table[-1]))[1]
        tabs.mkdir()
        aio.write_table(v, tabs / "table_0000.json")
    denoise = table == "net_denoised"
    isets = tmp_path / "isets"
    assert run("extract", "--in", tabs, "--out", isets,
               *([] if denoise else ["--no-denoise"])) == 0
    assert json.loads((isets / "batch.json").read_text())["solver"] == {v.label: "lp"}
    doc = json.loads((isets / f"{v.label}.json").read_text())
    support = lp_vertex(v, denoise)[1]
    written = [{e["mask"] for e in doc[key]} for key in ("and", "or")]
    assert all(w <= set(np.flatnonzero(row)) for w, row in zip(written, support))
    assert 0 < sum(map(len, written)) <= support.sum() < 300
    if not denoise:
        assert run("oracle", "verify", "--table", tabs / "table_0000.json",
                   "--interactions", isets / f"{v.label}.json") == 0


def test_cross_net_similarity_is_zero_where_only_dust_overlapped(tmp_path):
    """Seed 3 of the two-nets experiment: no order-7 effect of net a meets one
    of net b. Rounding dust in the written effects made order 7 read 1.86e-14."""
    _two_nets_tables(tmp_path, seed=3)
    for pop in ("a", "b"):
        assert run("extract", "--in", tmp_path / pop, "--out", tmp_path / f"isets_{pop}") == 0
    out = tmp_path / "similarity.csv"
    assert run("similarity", "--train", tmp_path / "isets_a", "--test", tmp_path / "isets_b",
               "--out", out) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert rows["7"] == "0.0"
    assert 0.0 < float(rows["0"]) < 1.0
