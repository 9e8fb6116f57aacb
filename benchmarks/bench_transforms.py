"""Time the subset-transform kernels and one sparsify objective evaluation.

Run directly: python benchmarks/bench_transforms.py [max_n]

The kernels are timed on one lattice vector and on a (2, 2**n) stack, the
shape of the batched calls inside the denoised objective. The objective
rows time one value-plus-gradient evaluation of the smoothed L1 objective
(``extraction._loss_grad``), with and without denoising, at n = 8, 10, 14.
Each figure is the best of several repeats.
"""

import sys
import time

import numpy as np

from andor._kernels import diff_transform, sum_transform
from andor.extraction import _loss_grad, _objective_base


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
               for name, kernel in (("diff", diff_transform), ("sum", sum_transform))
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


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    rng = np.random.default_rng(0)
    kernels(max_n, rng)
    objective(rng)


if __name__ == "__main__":
    main()
