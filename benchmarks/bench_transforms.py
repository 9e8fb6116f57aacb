"""Time the subset-transform kernels, one sparsify objective evaluation, one
sparsify solve on each solver path, the first solve of a fresh process, and
the oracle's reconstruction of sparse and dense effect sets.

Run directly: python benchmarks/bench_transforms.py [max_n]

The kernels are timed on one lattice vector at even n from 10 to max_n,
by default ``lattice.MAX_N``, the largest n a command accepts.
The objective rows time one value-plus-gradient evaluation of the smoothed
L1 objective (``extraction._loss_grad``), with and without denoising, at
n = 8, 10, 14. Each of these figures is the best of several repeats.

The solver rows time one solve per table, with and without denoising, on a
random normal table, a net table and a sparse game of the criterion-4 kind
(15 order-3 effects on an antichain) at n = 8, 9 and 10. Each row prints
the nonzeros of the LP's equality matrix (``extraction._lp_matrix``, its
rows in the half-butterfly coordinates of the extraction docstring), times
the LP without a pivot budget (``extraction._lp_solve``, which returns the
vertex with its pivot count) and prints the pivots, times the Huber path
(``extraction._huber_sparsify``, as it runs above ``LP_MAX_N``), and times
``sparsify`` itself and names the path that finished it ("lp", or "huber"
when the LP exhausted its budget), with the L1 of the LP's vertex (the sum
of its effect columns, not the LP's objective, which adds the order
weights) and of the Huber path.
The LP and ``sparsify`` columns also count the minor page faults of the
process during the call (``resource.getrusage``). Every solve of one
(n, denoise) runs on the one HiGHS instance ``extraction._lp_model`` keeps
for it, built before the row is timed. At n = 10 every uncapped LP but
the first of its mode follows a capped solve (inside an earlier row's
``sparsify``) on that instance; one that does not reach the optimum raises
and stops the script. The solver rows end with one line that holds them
again as a JSON list, one object per solve with the keys n, denoise, table,
nnz, pivots, path, lp_s, huber_s, sparsify_s, lp_l1 and huber_l1, so that
the LP cutoff and pivot budget (``extraction.LP_MAX_N``, set from these
rows) can be re-derived by script. Set OPENBLAS_NUM_THREADS=1 to time the
solvers on one BLAS thread. The n = 10 rows take about half a minute.

The fresh-process rows run one ``sparsify`` of the sparse game per
(n, denoise) in a new interpreter: what a user's first ``extract`` pays.
Each prints the solve's wall time, which includes loading the solver's
modules, the process's peak RSS and the number of scipy modules loaded,
and the rows end with one JSON line with the keys n, denoise, first_s,
peak_rss_mb and scipy_modules (their names).

The oracle rows time ``oracle.reconstruct`` at n = 8, 10, 12 and 14 on the
solver rows' sparse game (15 effects) and on a dense normal effect set.
Each prints the nonzero effects, the pairs ``reconstruct`` sums for them
(the supersets of their masks), the first call, which builds the oracle's
pair table, and the steady state (the best of several repeats). The rows
end with one JSON line with the keys n, effects ("sparse" or "dense"),
nonzero, pairs, first_s and steady_s.

The I/O rows time ``io.read_table``, ``io.write_table``,
``io.read_interactions`` and ``io.write_interactions`` at n = 8, 10 and 12,
on the sparse game (its table and its 15 effects) and on a dense normal
table and effect set, each the best of several repeats on files in a
temporary directory. Each prints the nonzero effects and the bytes of the
table and effect files, and the rows end with one JSON line with the keys
n, effects, nonzero, table_bytes, effects_bytes, read_table_s,
write_table_s, read_interactions_s and write_interactions_s.

``tests/test_bench_transforms.py`` runs the kernel and objective rows, and
the solver, fresh-process, oracle and I/O rows at n = 6, as a smoke test;
the full solver rows are run by hand.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from andor import extraction, oracle
from andor import io as aio
from andor.extraction import (LP_MAX_N, ZETA_FRACTION, InteractionSet, _huber_sparsify,
                              _loss_grad, _lp_matrix, _lp_model, _lp_solve, sparsify)
from andor.lattice import MAX_N, _diff_transform, _sum_transform, mobius_or, order_counts
from andor.models import (MaskingScheme, TinyNet, ValueTable, net_value_table,
                          realize_table, sample_sparse_game)
from andor.oracle import reconstruct


def best_time(fn, make_arg, repeats):
    best = float("inf")
    for _ in range(repeats):
        arg = make_arg()
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def repeats_for(n):
    return max(3, 1 << max(0, 18 - n))


def kernels(max_n, rng):
    columns = (("diff", _diff_transform), ("sum", _sum_transform))
    print(f"{'n':>4} " + " ".join(f"{name:>12}" for name, _ in columns))
    for n in range(10, max_n + 1, 2):
        times = []
        for _, kernel in columns:
            a = rng.normal(size=1 << n)
            times.append(best_time(kernel, a.copy, repeats_for(n)))
        print(f"{n:>4} " + " ".join(f"{t * 1e3:>10.3f}ms" for t in times))


def objective(rng):
    print(f"\n{'n':>4} {'loss_grad':>12} {'denoised':>12}")
    for n in (8, 10, 14):
        values = rng.normal(size=1 << n)
        or_base = mobius_or(values)
        times = []
        for denoise in (False, True):
            x = rng.normal(size=(2 if denoise else 1) * ((1 << n) - 1))
            times.append(best_time(lambda x: _loss_grad(x, 0.1, or_base, denoise),
                                   lambda: x, repeats_for(n)))
        print(f"{n:>4} " + " ".join(f"{t * 1e3:>10.3f}ms" for t in times))


def timed(fn):
    """(seconds, minor page faults, result) of one call of fn."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, out


def sparse_game(n):
    """The criterion-4-kind sparse game of the solver, oracle and I/O rows:
    15 order-3 effects on an antichain."""
    return sample_sparse_game(n, 15, {3: 1.0}, effect_range=4.0, rng_seed=n,
                              magnitude_floor=3.2, antichain=True)


def solvers(rng, ns=(8, 9, 10)):
    """Print one row per solve at each n of ns, then all rows as one JSON
    line: a list of objects with the keys n, denoise, table, nnz, pivots,
    path, lp_s, huber_s, sparsify_s, lp_l1 and huber_l1."""
    print(f"\nsparsify solves (LP_MAX_N = {LP_MAX_N}, "
          f"2**(n-1) pivots at n = {LP_MAX_N})")
    print(f"{'n':>4} {'table':>7} {'denoise':>8} {'nnz':>7} {'lp':>9} {'pivots':>7} "
          f"{'lp flt':>7} {'huber':>9} {'sparsify':>9} {'sp flt':>7} {'path':>6} "
          f"{'lp L1':>12} {'huber L1':>12}")
    rows = []
    for n in ns:
        net = TinyNet.random([n, 32, 32, 2], rng_seed=n)
        tables = {
            "random": ValueTable(n=n, values=rng.normal(size=1 << n)),
            "net": net_value_table(net, MaskingScheme(rng.normal(size=n), np.zeros(n))),
            "sparse": realize_table(sparse_game(n)),
        }
        for name, v in tables.items():
            for denoise in (False, True):
                _lp_model(n, denoise)            # one instance per (n, denoise)
                nnz = _lp_matrix(n, denoise).data.size
                zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
                t_lp, f_lp, (x, pivots) = timed(lambda: _lp_solve(v.values, zeta, denoise))
                lp_l1 = float(np.abs(x[:4 * (v.values.size - 1)]).sum())
                t_hub, _, hub = timed(lambda: _huber_sparsify(v, denoise))
                t_sp, f_sp, solved = timed(lambda: sparsify(v, denoise))
                hub_l1 = hub.interactions.total_l1()
                print(f"{n:>4} {name:>7} {str(denoise):>8} {nnz:>7} {t_lp:>8.3f}s "
                      f"{pivots:>7} {f_lp:>7} {t_hub:>8.3f}s {t_sp:>8.3f}s {f_sp:>7} "
                      f"{solved.solver:>6} {lp_l1:>12.4f} {hub_l1:>12.4f}")
                rows.append({"n": n, "denoise": denoise, "table": name, "nnz": nnz,
                             "pivots": pivots, "path": solved.solver, "lp_s": t_lp,
                             "huber_s": t_hub, "sparsify_s": t_sp, "lp_l1": lp_l1,
                             "huber_l1": hub_l1})
    print(json.dumps(rows))


# One sparsify in a new interpreter: the sparse game of the solver rows,
# then the solve's wall time, the peak RSS and the scipy modules loaded.
FRESH_SOLVE = """
import json, resource, sys, time
from andor.extraction import sparsify
from andor.models import realize_table, sample_sparse_game
n, denoise = {n}, {denoise}
v = realize_table(sample_sparse_game(n, 15, {{3: 1.0}}, effect_range=4.0, rng_seed=n,
                                     magnitude_floor=3.2, antichain=True))
t0 = time.perf_counter()
sparsify(v, denoise)
first_s = time.perf_counter() - t0
print(json.dumps({{"first_s": first_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "scipy_modules": sorted(m for m in sys.modules
                                          if m.split(".")[0] == "scipy")}}))
"""


def fresh_solves(ns=(8, 9, 10)):
    """Print one row per (n, denoise) of ns: one sparsify of the sparse game
    in a new interpreter that imports this andor, with the first solve's
    wall time, the process's peak RSS and the count of scipy modules loaded;
    then all rows as one JSON line, a list of objects with the keys n,
    denoise, first_s, peak_rss_mb and scipy_modules (the modules' names)."""
    src = str(Path(extraction.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    print("\nfirst sparsify in a fresh process (the sparse game)")
    print(f"{'n':>4} {'denoise':>8} {'first':>9} {'peak rss':>10} {'scipy mods':>11}")
    rows = []
    for n in ns:
        for denoise in (False, True):
            proc = subprocess.run(
                [sys.executable, "-c", FRESH_SOLVE.format(n=n, denoise=denoise)],
                capture_output=True, text=True, env=env, check=True)
            row = {"n": n, "denoise": denoise, **json.loads(proc.stdout)}
            print(f"{n:>4} {str(denoise):>8} {row['first_s']:>8.3f}s "
                  f"{row['peak_rss_mb']:>8.1f}MB {len(row['scipy_modules']):>11}")
            rows.append(row)
    print(json.dumps(rows))


def game_rows(n):
    """The (2, 2**n) AND and OR rows of the sparse game."""
    game = sparse_game(n)
    rows = np.zeros((2, 1 << n))
    for row, effects in enumerate((game.and_effects, game.or_effects)):
        for mask, effect in effects.items():
            rows[row, mask] = effect
    return rows


def oracle_rows(rng, ns=(8, 10, 12, 14)):
    """Print one row per (n, effect set) of ns: ``oracle.reconstruct`` of
    the sparse game's effects and of a dense normal set (its empty-set
    slots zero, as in an effect file), with the nonzero effects, the pairs it
    sums, its first call (which builds the pair table: the table caches are
    cleared before it) and its steady state (the best of several repeats);
    then all rows as one JSON line, a list of objects with the keys n,
    effects, nonzero, pairs, first_s and steady_s."""
    def call(effects):
        return reconstruct(effects[0], effects[1], 0.5)

    print("\noracle.reconstruct (first call builds the pair table)")
    print(f"{'n':>4} {'effects':>8} {'nonzero':>8} {'pairs':>9} {'first':>10} {'steady':>10}")
    rows = []
    for n in ns:
        dense = rng.normal(size=(2, 1 << n))
        dense[:, 0] = 0.0                   # as in an effect file
        for name, effects in (("sparse", game_rows(n)), ("dense", dense)):
            oracle._submask_pairs.cache_clear()
            oracle._blocks.cache_clear()
            first_s = best_time(call, lambda: effects, 1)
            steady_s = best_time(call, lambda: effects, repeats_for(n + 2))
            nonzero = (effects[0] != 0) | (effects[1] != 0)
            # the supersets of each nonzero effect's mask: 2**(n - |L|)
            pairs = int((1 << (n - order_counts(n)[nonzero].astype(np.int64))).sum())
            row = {"n": n, "effects": name, "nonzero": int(nonzero.sum()), "pairs": pairs,
                   "first_s": first_s, "steady_s": steady_s}
            print(f"{n:>4} {name:>8} {row['nonzero']:>8} {pairs:>9} "
                  f"{first_s * 1e3:>8.3f}ms {steady_s * 1e3:>8.3f}ms")
            rows.append(row)
    print(json.dumps(rows))


def io_rows(rng, ns=(8, 10, 12)):
    """Print one row per (n, effect set) of ns: the best of several repeats
    of ``io.read_table`` and ``io.write_table`` of a table file, and of
    ``io.read_interactions`` and ``io.write_interactions`` of an effect
    file, for the sparse game (its table and its effects) and for a dense
    normal table and effect set, with the nonzero effects and the two files'
    sizes; then all rows as one JSON line, a list of objects with the keys
    n, effects, nonzero, table_bytes, effects_bytes, read_table_s,
    write_table_s, read_interactions_s and write_interactions_s."""
    print("\nio (best of several repeats)")
    print(f"{'n':>4} {'effects':>8} {'nonzero':>8} {'table B':>9} {'effects B':>10} "
          f"{'read tab':>10} {'write tab':>10} {'read eff':>10} {'write eff':>10}")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        table_file, effects_file = Path(tmp) / "table.json", Path(tmp) / "effects.json"
        for n in ns:
            dense = rng.normal(size=(2, 1 << n))
            dense[:, 0] = 0.0                   # as in an effect file
            for name, table, effects in (
                    ("sparse", realize_table(sparse_game(n)), game_rows(n)),
                    ("dense", ValueTable(n=n, values=rng.normal(size=1 << n)), dense)):
                iset = InteractionSet(n=n, effects=effects, bias=0.5, label="sample_0000")
                aio.write_table(table, table_file)
                aio.write_interactions(iset, effects_file)
                repeats = repeats_for(n + 2)
                row = {"n": n, "effects": name,
                       "nonzero": int(np.count_nonzero(effects)),
                       "table_bytes": table_file.stat().st_size,
                       "effects_bytes": effects_file.stat().st_size,
                       "read_table_s": best_time(aio.read_table, lambda: table_file,
                                                 repeats),
                       "write_table_s": best_time(
                           lambda v: aio.write_table(v, table_file), lambda: table, repeats),
                       "read_interactions_s": best_time(aio.read_interactions,
                                                        lambda: effects_file, repeats),
                       "write_interactions_s": best_time(
                           lambda s: aio.write_interactions(s, effects_file),
                           lambda: iset, repeats)}
                print(f"{n:>4} {name:>8} {row['nonzero']:>8} {row['table_bytes']:>9} "
                      f"{row['effects_bytes']:>10} " + " ".join(
                          f"{row[k] * 1e3:>8.3f}ms" for k in
                          ("read_table_s", "write_table_s", "read_interactions_s",
                           "write_interactions_s")))
                rows.append(row)
    print(json.dumps(rows))


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else MAX_N
    rng = np.random.default_rng(0)
    kernels(max_n, rng)
    objective(rng)
    solvers(rng)
    fresh_solves()
    oracle_rows(rng)
    io_rows(rng)


if __name__ == "__main__":
    main()
