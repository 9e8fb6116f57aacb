"""Time the subset-transform kernels, one sparsify objective evaluation, and
one sparsify solve on each solver path.

Run directly: python benchmarks/bench_transforms.py [max_n]

The kernels are timed on one lattice vector and on a (2, 2**n) stack, the
shape of the batched calls inside the denoised objective. The objective
rows time one value-plus-gradient evaluation of the smoothed L1 objective
(``extraction._loss_grad``), with and without denoising, at n = 8, 10, 14.
Each of these figures is the best of several repeats.

The solver rows time one solve per table, with and without denoising, on a
random normal table, a net table and a sparse game of the criterion-4 kind
(15 order-3 effects on an antichain) at n = 8, 9 and 10. Each row prints
the nonzeros of the LP's equality matrix (``extraction._lp_matrix``, its
rows in the half-butterfly coordinates of the extraction docstring), times
the LP without a pivot budget (``extraction._lp_solve``, which returns the
vertex with its pivot count) and prints the pivots, times ``sparsify`` on the
Huber path (as it runs above ``LP_MAX_N``), and times ``sparsify`` itself and
names the path that finished it ("lp", or "huber" when the LP exhausted its
budget), with the L1 of the LP's vertex (the sum of its effect columns, not
the LP's objective, which adds the order weights) and of the Huber path.
The LP and ``sparsify`` columns also count the minor page faults of the
process during the call (``resource.getrusage``). Every solve of one
(n, denoise) runs on the one HiGHS instance ``extraction._lp_model`` keeps
for it, built before the row is timed. At n = 10 every uncapped LP but
the first of its mode follows a capped solve (inside an earlier row's
``sparsify``) on that instance, and the script stops if one does not reach
the optimum. The last line of output holds the solver rows again as one
JSON list, one object per solve with the keys n, denoise, table, nnz,
pivots, path, lp_s, huber_s, sparsify_s, lp_l1 and huber_l1, so that the
LP cutoff and pivot budget (``extraction.LP_MAX_N``, set from these rows)
can be re-derived by script. Set OPENBLAS_NUM_THREADS=1 to time the
solvers on one BLAS thread. The n = 10 rows take about half a minute.
``tests/test_bench_transforms.py`` runs the kernel and objective rows, and
the solver rows at n = 6, as a smoke test; the full solver rows are run by
hand.
"""

import json
import resource
import sys
import time

import numpy as np

from andor import extraction
from andor.extraction import (LP_MAX_N, ZETA_FRACTION, _loss_grad, _lp_matrix,
                              _lp_model, _lp_solve, _objective_base, sparsify)
from andor.lattice import _diff_transform, _sum_transform
from andor.models import (MaskingScheme, TinyNet, ValueTable, net_value_table,
                          realize_table, sample_sparse_game)


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
    columns = [(f"{name}/{shape}", kernel, rows)
               for name, kernel in (("diff", _diff_transform), ("sum", _sum_transform))
               for shape, rows in (("1d", None), ("2xN", 2))]
    print(f"{'n':>4} " + " ".join(f"{name:>12}" for name, _, _ in columns))
    for n in range(10, max_n + 1, 2):
        times = []
        for _, kernel, rows in columns:
            a = rng.normal(size=(1 << n) if rows is None else (rows, 1 << n))
            times.append(best_time(kernel, a.copy, repeats_for(n)))
        print(f"{n:>4} " + " ".join(f"{t * 1e3:>10.3f}ms" for t in times))


def objective(rng):
    print(f"\n{'n':>4} {'loss_grad':>12} {'denoised':>12}")
    for n in (8, 10, 14):
        values = rng.normal(size=1 << n)
        base = _objective_base(values)
        times = []
        for denoise in (False, True):
            x = rng.normal(size=(2 if denoise else 1) * ((1 << n) - 1))
            times.append(best_time(lambda x: _loss_grad(x, 0.1, base, denoise),
                                   lambda: x, repeats_for(n)))
        print(f"{n:>4} " + " ".join(f"{t * 1e3:>10.3f}ms" for t in times))


def timed(fn):
    """(seconds, minor page faults, result) of one call of fn."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, out


def huber_sparsify(v, denoise):
    """sparsify on the Huber path, as it runs for tables above LP_MAX_N."""
    saved, extraction.LP_MAX_N = extraction.LP_MAX_N, v.n - 1
    try:
        return sparsify(v, denoise)
    finally:
        extraction.LP_MAX_N = saved


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
        game = sample_sparse_game(n, 15, {3: 1.0}, effect_range=4.0, rng_seed=n,
                                  magnitude_floor=3.2, antichain=True)
        tables = {
            "random": ValueTable(n=n, values=rng.normal(size=1 << n)),
            "net": net_value_table(net, MaskingScheme(rng.normal(size=n), np.zeros(n))),
            "sparse": realize_table(game),
        }
        for name, v in tables.items():
            for denoise in (False, True):
                _lp_model(n, denoise)            # one instance per (n, denoise)
                nnz = _lp_matrix(n, denoise).nnz
                zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
                base = _objective_base(v.values)
                t_lp, f_lp, res = timed(lambda: _lp_solve(base, zeta, denoise))
                if res.status != 0:
                    raise SystemExit(f"the uncapped LP stopped: {res.message}")
                lp_l1 = float(np.abs(res.x[:4 * (v.values.size - 1)]).sum())
                t_hub, _, (_, _, hub_hist) = timed(lambda: huber_sparsify(v, denoise))
                t_sp, f_sp, (d, _, _) = timed(lambda: sparsify(v, denoise))
                print(f"{n:>4} {name:>7} {str(denoise):>8} {nnz:>7} {t_lp:>8.3f}s "
                      f"{res.pivots:>7} {f_lp:>7} {t_hub:>8.3f}s {t_sp:>8.3f}s {f_sp:>7} "
                      f"{d.solver:>6} {lp_l1:>12.4f} {hub_hist[-1]:>12.4f}")
                rows.append({"n": n, "denoise": denoise, "table": name, "nnz": nnz,
                             "pivots": res.pivots, "path": d.solver, "lp_s": t_lp,
                             "huber_s": t_hub, "sparsify_s": t_sp, "lp_l1": lp_l1,
                             "huber_l1": hub_hist[-1]})
    print(json.dumps(rows))


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    rng = np.random.default_rng(0)
    kernels(max_n, rng)
    objective(rng)
    solvers(rng)


if __name__ == "__main__":
    main()
