"""File formats: JSON documents for tables and interaction sets, CSV reports.

This is the one module that reads or writes JSON. Every file is laid out
as ``json.dumps(doc, sort_keys=True, indent=1)`` lays it out, with a final
newline, and spells every float as repr does (the shortest decimal that
reads back bit for bit, locale independent), so writing the same object
twice produces byte-identical files. ``write_table`` and
``write_interactions`` lay out their fixed documents themselves, because
``indent`` forces json's pure-Python encoder: orjson's C formatter spells
the floats (``_floats``), and only the few it spells unlike repr, below
1e-4 or from 1e16 in magnitude, are respelled with repr. ``write_json``
keeps ``json.dumps`` for the small sidecar documents, whose keys are not
fixed. The readers parse with orjson, which reads every written float back
bit for bit, and check every field's JSON type (a boolean is no number).
On a malformed document they raise:

- orjson.JSONDecodeError, a ValueError, on text that is not strict JSON:
  a NaN or Infinity literal, a number beyond the float range, a lone
  surrogate in a string, or a truncated document;
- ValueError on a field of the wrong JSON type, an integer outside
  [-2**63, 2**64) included where an integer is wanted (orjson reads it as
  a float); on a mask out of range or listed twice; and on values that do
  not fit n or are not finite;
- KeyError on a missing required field.
"""

import csv
import json
from pathlib import Path

import numpy as np
import orjson

from .extraction import InteractionSet
from .lattice import table_size
from .metrics import OrderProfile, SimilarityReport, is_undefined
from .models import ValueTable

# CSV value used where a metric is mathematically undefined (0/0 ratios).
UNDEFINED_FIELD = "undefined"
# The Python types of the JSON values a field may hold.
INTEGER, NUMBER, STRING, LIST = (int,), (int, float), (str,), (list,)


def _only(items, types, what: str) -> list:
    """``items``, whose elements must all have one of the exact ``types``."""
    if not set(map(type, items)) <= set(types):
        raise ValueError(f"{what} holds a value of the wrong JSON type")
    return items


def _get(doc, key: str, types, default=None):
    """``doc[key]``, of one of the exact ``types``; a missing key gives
    ``default`` when one is given and raises KeyError otherwise."""
    if type(doc) is not dict:
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    if default is not None and key not in doc:
        return default
    return _only([doc[key]], types, repr(key))[0]


def write_json(doc: dict, path) -> None:
    """``doc`` with sorted keys, one-space indents and a final newline."""
    text = json.dumps(doc, sort_keys=True, indent=1)
    Path(path).write_text(text + "\n")


def _floats(values) -> list[str]:
    """Each entry of the float64 array ``values`` spelt as repr spells it.

    orjson writes the same shortest round-trip digits as repr, but keeps
    positional notation below 1e-4 (``0.00001`` for ``1e-05``) and spells
    1e16 and up without the exponent's sign (``1e16`` for ``1e+16``);
    those entries are respelled with repr. orjson would write a non-finite
    value as null, so one raises ValueError.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("cannot write a non-finite value")
    if not values.size:
        return []
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(values)
    for i in np.flatnonzero((size < 1e-4) & (size > 0) | (size >= 1e16)).tolist():
        text[i] = repr(float(values[i]))
    return text


def _write_document(fields: dict[str, str | list[str]], path) -> None:
    """The object of the already-spelt ``fields``, laid out as write_json
    lays it out; a list field is given as the list of its spelt items."""
    def value(v):
        if not isinstance(v, list):
            return v
        return ("[\n  " + ",\n  ".join(v) + "\n ]") if v else "[]"

    Path(path).write_text("{\n" + ",\n".join(
        f' "{key}": {value(fields[key])}' for key in sorted(fields)) + "\n}\n")


def write_table(v: ValueTable, path) -> None:
    _write_document({"n": str(v.n), "label": json.dumps(v.label), "meta": json.dumps(v.meta),
                     "values": _floats(v.values)}, path)


def read_table(path) -> ValueTable:
    doc = orjson.loads(Path(path).read_bytes())
    values = _only(_get(doc, "values", LIST), NUMBER, "'values'")
    return ValueTable(n=_get(doc, "n", INTEGER), values=np.array(values, dtype=np.float64),
                      label=_get(doc, "label", STRING, ""), meta=_get(doc, "meta", STRING, ""))


def write_interactions(iset: InteractionSet, path) -> None:
    """Sparse (mask, value) lists of the nonzero effects."""
    def entries(row):
        masks = np.flatnonzero(row[1:]) + 1
        return [f'{{\n   "mask": {m},\n   "value": {x}\n  }}'
                for m, x in zip(masks.tolist(), _floats(row[masks]))]

    _write_document({"n": str(iset.n), "label": json.dumps(iset.label),
                     "bias": _floats([iset.bias])[0],
                     "and": entries(iset.i_and), "or": entries(iset.i_or)}, path)


def read_interactions(path) -> InteractionSet:
    doc = orjson.loads(Path(path).read_bytes())
    n = _get(doc, "n", INTEGER)
    effects = np.zeros((2, table_size(n)))
    for row, key in zip(effects, ("and", "or")):
        entries = _only(_get(doc, key, LIST), (dict,), repr(key))
        masks = _only([e["mask"] for e in entries], INTEGER, f"{key!r} masks")
        if masks and not 0 <= min(masks) <= max(masks) < row.size:
            raise ValueError(f"{key!r} has a mask outside 0..{row.size - 1}")
        if len(set(masks)) < len(masks):
            raise ValueError(f"{key!r} lists a mask twice")
        row[masks] = _only([e["value"] for e in entries], NUMBER, f"{key!r} values")
    return InteractionSet(n=n, effects=effects, bias=float(_get(doc, "bias", NUMBER)),
                          label=_get(doc, "label", STRING, ""))


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
