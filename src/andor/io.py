"""File formats: JSON documents for tables and interaction sets, CSV reports.

All numbers are serialized with repr (full-precision decimal, locale
independent) and all JSON keys are sorted, so writing the same object twice
produces byte-identical files.
"""

import csv
import json
from pathlib import Path

import numpy as np

from .extraction import InteractionSet
from .metrics import OrderProfile, SimilarityReport, is_undefined
from .models import ValueTable

# CSV value used where a metric is mathematically undefined (0/0 ratios).
UNDEFINED_FIELD = "undefined"


def _dump_json(doc: dict, path: Path) -> None:
    text = json.dumps(doc, sort_keys=True, indent=1)
    Path(path).write_text(text + "\n")


def write_table(v: ValueTable, path) -> None:
    _dump_json({
        "n": v.n,
        "label": v.label,
        "values": [float(x) for x in v.values],
        "meta": v.meta,
    }, path)


def read_table(path) -> ValueTable:
    doc = json.loads(Path(path).read_text())
    return ValueTable(n=int(doc["n"]), values=np.array(doc["values"], dtype=np.float64),
                      label=str(doc.get("label", "")), meta=str(doc.get("meta", "")))


def write_interactions(iset: InteractionSet, path) -> None:
    """Sparse (mask, value) lists of the nonzero effects."""
    def entries(effects):
        return [{"mask": int(m), "value": float(effects[m])}
                for m in np.flatnonzero(effects) if m != 0]

    _dump_json({
        "n": iset.n,
        "label": iset.label,
        "bias": float(iset.bias),
        "and": entries(iset.i_and),
        "or": entries(iset.i_or),
    }, path)


def read_interactions(path) -> InteractionSet:
    doc = json.loads(Path(path).read_text())
    n = int(doc["n"])
    i_and = np.zeros(1 << n)
    i_or = np.zeros(1 << n)
    for arr, key in ((i_and, "and"), (i_or, "or")):
        for entry in doc[key]:
            arr[int(entry["mask"])] = float(entry["value"])
    return InteractionSet(n=n, i_and=i_and, i_or=i_or, bias=float(doc["bias"]),
                          label=str(doc.get("label", "")))


def _fmt(x: float) -> str:
    if is_undefined(x):
        return UNDEFINED_FIELD
    return repr(float(x))


PROFILE_HEADER = ["sample_label", "k", "j_pos", "j_neg", "offset_mass"]


def write_profiles(rows: list[tuple[str, OrderProfile]], path) -> None:
    """Long-format CSV: one row per (sample, order k)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(PROFILE_HEADER)
        for label, p in rows:
            offset = p.offset_mass()
            for k in range(1, p.n + 1):
                w.writerow([label, k, _fmt(p.j_pos[k - 1]), _fmt(p.j_neg[k - 1]),
                            _fmt(offset[k - 1])])


SIMILARITY_HEADER = ["k", "sim"]


def write_similarity(report: SimilarityReport, path) -> None:
    """CSV of per-order similarities; k = 0 row carries the global value."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(SIMILARITY_HEADER)
        w.writerow([0, _fmt(report.sim_global)])
        for k in range(1, report.n + 1):
            w.writerow([k, _fmt(report.sim_per_order[k - 1])])


COMPARE_HEADER = ["sample_label", "eta_a", "eta_b"]


def write_comparison(cmp, path) -> None:
    """Per-sample eta pairs; summary statistics go in the trailing rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(COMPARE_HEADER)
        for label, ea, eb in cmp.points:
            w.writerow([label, _fmt(ea), _fmt(eb)])
        w.writerow(["#rank_correlation", _fmt(cmp.rank_correlation), ""])
        w.writerow(["#mean_abs_diagonal_gap", _fmt(cmp.mean_abs_diagonal_gap), ""])
        w.writerow(["#overlap", _fmt(cmp.overlap), ""])
