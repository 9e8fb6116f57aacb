"""Correctness checks for the benchmark, made apart from the program.

Nothing here imports ``andor``. Files are parsed with the standard ``json``
and ``csv`` modules, and every subset sum is evaluated literally: row ``S`` of
a 0/1 matrix marks the masks ``T`` that the defining sum runs over, and a
matrix product adds them up. Each check returns a list of failure messages,
empty when the check passes.
"""

import csv
import json
from pathlib import Path

import numpy as np

# Rows of the literal 0/1 matrices built at a time; 256 rows at n=14 is 32 MB.
ROW_CHUNK = 256


def read_table(path):
    """(n, values) of a value-table file."""
    doc = json.loads(Path(path).read_text())
    return int(doc["n"]), np.array(doc["values"], dtype=np.float64)


def read_effects(path):
    """(n, bias, i_and, i_or) of an interaction file; unlisted masks are 0."""
    doc = json.loads(Path(path).read_text())
    n = int(doc["n"])
    i_and = np.zeros(1 << n)
    i_or = np.zeros(1 << n)
    for arr, key in ((i_and, "and"), (i_or, "or")):
        for entry in doc[key]:
            arr[int(entry["mask"])] = float(entry["value"])
    return n, float(doc["bias"]), i_and, i_or


def read_similarity(path):
    """{k: sim} of a similarity CSV; undefined orders are left out."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {int(r["k"]): float(r["sim"]) for r in rows if r["sim"] != "undefined"}


def _popcount(masks):
    return np.array([bin(int(m)).count("1") for m in masks], dtype=np.int64)


def reconstruct(n, bias, i_and, i_or):
    """h(S) = b + sum_{T subset S} I_and[T] + sum_{T & S != 0} I_or[T] on every S.

    ``i_and`` and ``i_or`` are (2**n,) or (2**n, k) arrays; ``bias`` a scalar
    or (k,) array. The empty-set AND slot is included as written (it is 0 in
    an interaction file).
    """
    size = 1 << n
    t = np.arange(size)
    out = np.empty(np.shape(i_and), dtype=np.float64)
    for lo in range(0, size, ROW_CHUNK):
        s = t[lo:lo + ROW_CHUNK, None]
        inside = ((s & t) == t).astype(np.float64)
        meets = ((s & t) != 0).astype(np.float64)
        out[lo:lo + ROW_CHUNK] = inside @ i_and + meets @ i_or
    return out + bias


def all_and_effects(n, values):
    """I[T] = sum_{L subset T} (-1)^(|T|-|L|) v[L], the empty slot set to 0."""
    size = 1 << n
    t = np.arange(size)
    pop = _popcount(t)
    out = np.empty(size)
    for lo in range(0, size, ROW_CHUNK):
        rows = t[lo:lo + ROW_CHUNK, None]
        signs = np.where((pop[lo:lo + ROW_CHUNK, None] - pop[None, :]) % 2, -1.0, 1.0)
        out[lo:lo + ROW_CHUNK] = (((rows & t) == t) * signs) @ values
    out[0] = 0.0
    return out


def scale_of(values):
    return max(1.0, float(np.max(np.abs(values))))


def gap_of(values):
    return abs(float(values[-1]) - float(values[0]))


def check_reconstruction(labels, n, values, bias, i_and, i_or, tol):
    """Each column's effects rebuild its table to within its ``tol`` at every mask.

    ``values``, ``i_and`` and ``i_or`` are (2**n, k); ``bias`` and ``tol`` (k,).
    """
    errors = np.max(np.abs(reconstruct(n, bias, i_and, i_or) - values), axis=0)
    return [f"{labels[j]}: reconstruction error {errors[j]:.3e} exceeds {tol[j]:.3e}"
            for j in range(len(labels)) if not errors[j] <= tol[j]]


def check_support(games, tau_fraction=0.02, required_share=0.9):
    """Salient support (|effect| > tau) equals the ground truth on enough games.

    ``games`` holds (values, i_and, i_or, truth) with truth a set of
    ("and"|"or", mask) pairs; tau = tau_fraction * gap of each game.
    """
    exact = 0
    for values, i_and, i_or, truth in games:
        tau = tau_fraction * gap_of(values)
        found = {("and", int(m)) for m in np.flatnonzero(np.abs(i_and) > tau)}
        found |= {("or", int(m)) for m in np.flatnonzero(np.abs(i_or) > tau)}
        exact += found == truth
    if exact < required_share * len(games):
        return [f"exact salient support on {exact}/{len(games)} games, "
                f"need {required_share:.0%}"]
    return []


def check_l1_bound(label, n, values, i_and, i_or, slack=1e-9):
    """The sparsified L1 is at most the all-AND decomposition's L1."""
    l1 = float(np.abs(i_and).sum() + np.abs(i_or).sum())
    bound = float(np.abs(all_and_effects(n, values)).sum())
    if l1 > bound + slack:
        return [f"{label}: L1 {l1!r} above the all-AND L1 {bound!r}"]
    return []


def check_efficiency(label, values, bias, i_and, i_or, tol):
    """AND and OR effects plus the bias sum to v(N)."""
    err = abs(float(i_and.sum() + i_or.sum()) + bias - float(values[-1]))
    if err > tol:
        return [f"{label}: efficiency error {err:.3e} exceeds {tol:.3e}"]
    return []


def check_self_similarity(label, sims, tol=1e-12):
    """A population compared with itself scores 1 at every defined order."""
    bad = {k: s for k, s in sims.items() if abs(s - 1.0) > tol}
    if not sims or bad:
        return [f"{label}: self-similarity not 1 at {bad or 'any order'}"]
    return []
