"""AND-OR interaction extraction and L1 sparsification.

The masked outputs are split as v - delta = u_and + u_or, into AND effects
p = mobius_and(u_and) and OR effects q = mobius_or(u_or), with delta[0] = 0
and u_and[0] = v[0] pinned so the all-masked output is attributed to the AND
side and the bias is identifiable. ``sparsify`` learns the split and delta
by minimizing the total effect magnitude and returns the effects and the
delta it solved for (``Sparsified``). The two closed forms fix delta = 0:
``all_and`` (u_and = v) and ``even_split`` (u_and = u_or = v/2 beyond the
pin).

Both solvers minimize over the same variables, p and delta on the nonempty
subsets, which fix q = mobius_or(v - delta - zeta_subsets(p)) =
S p + mobius_or(v - delta) with S p = (-1)^|S| * zeta_supersets(p)
(``_split_effects``): the rows S p - q + K delta = K v with K = -M_or. The
problem is then a linear program, and ``sparsify`` picks its solver from
the table size n:

- n <= LP_MAX_N: the exact L1 minimum, one HiGHS dual-simplex solve of that
  LP (``_lp_sparsify``). At n = LP_MAX_N the simplex gets 2**(n-1) pivots:
  a sparse table (a few effects) needs a few dozen, a dense one (random or
  net outputs) thousands. A table whose LP needs more goes to the Huber
  continuation below and comes out exactly as it would without the LP
  attempt.
- n = 11..14 (above LP_MAX_N, up to ``lattice.MAX_N``), and n = 10 tables
  past the pivot budget: a smoothed-L1 (Huber) continuation with L-BFGS-B
  over (p, delta) (``_huber_sparsify``), which stops near the minimum. In
  the coordinates of u_and the objective's curvature spans a factor
  exponential in n and first-order methods stall; in p it converges in a
  few thousand quasi-Newton steps, each evaluation needing one superset sum
  and its adjoint, plus one ``mobius_or`` of delta and its adjoint when
  denoising.

``benchmarks/bench_transforms.py`` prints the pivots and times that set the
cutoff and the budget, per table; CHANGES.md keeps the measurements.

The scale. The L1 split is scale-equivariant: the minimal effects and the
delta box of c * v are c times v's. Every scale the solvers use is the
table's spread about its bias, max_S |v(S) - v(empty)|
(``ValueTable.half_spread``), not max|v|, because adding a constant to v
moves only the bias: scaled by max|v|, a table 1e6 + 1e-3 * noise would
leave every row bound below HiGHS's tolerances, and its Huber widths would
follow the offset. A table of spread 0 is constant, and its bias rebuilds
it: ``sparsify`` returns no effect and no delta for it, and runs no
solver. Any other table is written as v = 2**e * u, e chosen so that u's
spread lies in [0.5, 1); ``sparsify`` solves u and scales the effects and
delta back by 2**e. ``np.ldexp`` is exact short of subnormals, so every
solver input is exactly 2**-e times what the table itself would give, and
sparsify(2**k * v) is 2**k * sparsify(v) bit for bit. The solvers see
magnitudes near 1 only: the LP's row bounds stay below 2**n and its delta
box below 0.02, far from HiGHS's infinite bound (1e20) and well above its
absolute tolerances (1e-7), and no effect of u overflows. The one
magnitude check left is on the scaled-back effects, whose L1 overflows
float64 where the table's effects do.

The order weights. The LP does not give every effect cost 1: the effect on
subset S costs 1 + LP_ORDER_WEIGHT * |S|**2 (both signs, AND and OR alike;
delta costs 0). Under unit costs the LP is heavily dual-degenerate: its
minimum is often not unique, the dual simplex pays for the ties in pivots,
and it returns whichever optimal vertex its pivoting reaches. With the
weights, the optimum is a vertex of the unit-cost LP's optimal face when
epsilon = LP_ORDER_WEIGHT is small enough (the perturbation method, Charnes
1952): among the L1 minima, the one of least sum |S|**2 * |I_S|, which puts
the mass on the lowest orders. epsilon = 1e-6 sits between two bounds:

- the smallest weight step, epsilon * 1**2, is 10 times HiGHS's dual
  feasibility tolerance of 1e-7, so the pricing sees every tie broken;
- the weighted cost is at most 1 + epsilon * n**2 times the L1, so the
  returned L1 exceeds the minimum by at most epsilon * n**2 relative, 1e-4
  at n = 10.

The square, not |S|, separates the tie where one order-3 effect trades
against an order-2 and an order-4 effect of equal magnitude:
2**2 + 4**2 = 20 > 18 = 3**2 + 3**2, while 2 + 4 = 3 + 3.

The row coordinates. The LP's equality rows over the nonempty subsets are,
plainly, [S, -S, -I, I, K] times (p+, p-, q+, q-, delta), where S and K are
n-fold kron products of 2x2 factors with 3**n nonzeros each
(``_lp_matrix``). HiGHS gets them left-multiplied by R', the nonempty block
of R = the kron of T = [[1,1],[0,-1]] on the top k bits and of I on the
other n - k. T is an involution and R has no entry from a nonempty row to
the empty column, so R' is its own inverse: the variables, bounds, costs,
feasible set and minimum stay those of the plain rows, and only the
coordinates of the rows change. Since S is kron^n T, the p+- blocks become
R'S' with about 2**k * 3**(n-k) nonzeros, the q+- blocks +-R' with about
3**k * 2**(n-k), and the delta block R'K' keeps 3**n (per bit T times K's
factor is [[1,0],[-1,1]]). The two products are 6**n for every k, so by
AM-GM their sum is least where they are equal, at k = n // 2: 30 976
nonzeros at n = 10 against 118 096 in the plain rows, and fewer pivots.
Where the minimum ties, as it can when denoising (delta costs 0), the
simplex may reach another optimal vertex than on the plain rows.

The row bounds are one transform of the table. The plain rows' right-hand
side is K v, and HiGHS gets R'K v. Per bit, T times K's factor is
mobius_and's factor [[1,0],[-1,1]], and K's own [[0,1],[1,-1]] is
mobius_and's with the bit complemented, so R'K v is ``mobius_and`` of v with
its low n - n // 2 bits complemented, at the nonempty subsets (``_lp_rhs``).

The written effects. ``sparsify`` returns the effects and delta of the
split it picked. On the LP path they are the vertex's own: p = p+ - p-
(AND) and q = q+ - q- (OR), with the empty-set slots 0. A slot the vertex
holds at zero is an exact 0.0. A basic delta column can pass its box by
the solver's feasibility tolerance. Where it passes it by no more than
1e-12 (at unit spread), the vertex's delta is kept. Beyond that, delta is
clipped into the box and the clip Delta = delta_clipped - delta_raw is
folded into the OR row as q -= mobius_or(Delta): the rows give
q = S p - K v + K delta with K = -M_or, so the folded effects rebuild
v - delta_clipped as the vertex's rebuilt v - delta_raw. Unfolded, they
would miss the returned delta by the overshoot. On the Huber path they are
``_split_effects`` of the best stage iterate, whose delta L-BFGS-B's bounds
keep in the box, or a closed form's, with delta = 0.

``sparsify`` only picks the path (its docstring lists them). The LP path
returns the vertex as solved, or None when the pivot budget runs out: by
the order weights its L1 is within 1 + epsilon * n**2 of any feasible
split's, so a closed form could only tie it, and the vertex is the
tie-break. The Huber path stops short of the minimum, so
``_huber_sparsify`` keeps the best of the even split it starts from, each
stage's iterate and all-AND.

scipy is loaded on the first solve, not with the module, and only what
the solve needs: the LP path loads one extension module (``_highs_core``)
and builds its matrix in numpy, importing neither ``scipy.optimize`` nor
``scipy.sparse``; the Huber path imports ``scipy.optimize`` for
``minimize``, a module attribute (see ``__getattr__``).

The LP reaches HiGHS through the bindings scipy ships in its private module
``scipy.optimize._highspy._core``, not through ``linprog``. ``_lp_model``
builds one HiGHS instance per (n, denoise), once per process, with the
options of ``linprog(method="highs-ds")`` with presolve and scaling off,
and one HiGHS model holding the matrix and the costs. Each solve writes the
table's row bounds (and delta box) into the model, passes it to the
instance, which drops the previous solve's basis and solution, sets the
pivot limit, runs it and reads the vertex and the status. The matrix's
arrays are bit for bit those scipy.sparse builds, and scaling a matrix of
+-1 entries changes no pivot, so the vertex and the pivot count are
linprog's given the same costs and row bounds (the tests pass linprog the
model's costs and ``_lp_rhs`` and compare the two, also for solves of
several modes interleaved in one process). linprog rebuilds the model and
a fresh HiGHS instance on every call and builds bound marginals andor never
reads; the bindings set row bounds only one row per call
(``changeRowBounds``), which costs more than passing the whole model again.
The module is not scipy's public API, so ``_highs_core`` is the one
function that names it, and a scipy release that changes it fails the
tests loudly.
"""

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import (mobius_and, mobius_or, order_counts, table_size,
                      zeta_subsets, zeta_supersets)
from .models import ValueTable

# The LP solves n <= LP_MAX_N; at n = LP_MAX_N its dual simplex stops after
# 2**(n-1) pivots.
LP_MAX_N = 10
# The LP's cost of an effect on subset S is 1 + LP_ORDER_WEIGHT * |S|**2, a
# tie-break toward low orders (see the module docstring).
LP_ORDER_WEIGHT = 1e-6
# On the Huber path, an iterate replaces the best split so far only if its L1
# is lower by this much, relative.
CONVERGENCE_EPS = 1e-9
# Huber widths of the continuation's stages, as fractions of the table's
# spread, largest first.
SMOOTHING_STAGES = (0.1, 0.01, 0.001)
# Per-stage quasi-Newton cap of the Huber continuation; it does not bound the LP.
HUBER_MAX_ITERS = 2000
DEFAULT_SALIENCE_FRACTION = 0.02
# Denoising box: |delta| <= ZETA_FRACTION * the table's gap.
ZETA_FRACTION = 0.02


def __getattr__(name):
    """Bind scipy's ``minimize`` as a module attribute on first access.

    The Huber stage calls whatever the attribute is bound to, so a caller
    may rebind it (to wrap or count the solver) without scipy loading at
    import time.
    """
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize
    globals()["minimize"] = minimize
    return minimize


class NumericalError(RuntimeError):
    pass


@dataclass
class InteractionSet:
    """Extracted effects as finite (2, 2**n) rows, AND then OR, by bitmask;
    the empty-set slots are zero, bias holds v(x_empty)."""

    n: int
    effects: np.ndarray
    bias: float
    label: str = ""

    def __post_init__(self):
        self.effects = np.asarray(self.effects, dtype=np.float64)
        if self.effects.shape != (2, table_size(self.n)):
            raise ValueError("effects must be the (2, 2**n) AND and OR rows")
        if not (np.all(np.isfinite(self.effects)) and np.isfinite(self.bias)):
            raise ValueError("effects and bias must be finite")
        if np.any(self.effects[:, 0] != 0.0):
            raise ValueError("empty-set effects must be zero (bias holds the empty term)")

    @property
    def i_and(self) -> np.ndarray:
        return self.effects[0]

    @property
    def i_or(self) -> np.ndarray:
        return self.effects[1]

    def total_l1(self) -> float:
        # the AND sum plus the OR sum; one flat sum would round differently
        return float(np.abs(self.effects).sum(axis=1).sum())

    def salient(self, tau: float = 0.0) -> np.ndarray:
        """(2, 2**n) mask of the salient effects: |effect| strictly above tau.

        At tau = 0 every nonzero effect is salient; the empty-set slots,
        being zero, never are.
        """
        if tau < 0 or np.isnan(tau):
            raise ValueError("tau must be nonnegative")
        return np.abs(self.effects) > tau

    def support(self, tau: float = 0.0) -> set[tuple[str, int]]:
        kinds, masks = np.nonzero(self.salient(tau))
        return {(("and", "or")[k], int(m)) for k, m in zip(kinds, masks)}


def _interaction_set(v: ValueTable, effects: np.ndarray) -> InteractionSet:
    return InteractionSet(n=v.n, effects=effects, bias=float(v.values[0]), label=v.label)


def _closed_form(v: ValueTable, effects: np.ndarray) -> InteractionSet:
    """The closed form with these (2, 2**n) effect rows, empty-set slots zeroed."""
    effects[:, 0] = 0.0
    if not np.isfinite(np.abs(effects).sum()):
        # v is finite, so its effects or their L1 overflow float64: an input error
        raise ValueError("the table's effects overflow float64")
    return _interaction_set(v, effects)


def all_and(v: ValueTable) -> InteractionSet:
    """The all-AND closed form (delta = 0): u_and = v, u_or = 0, so the AND
    effects are mobius_and(v) and no OR effect is nonzero."""
    return _closed_form(v, np.stack([mobius_and(v.values), np.zeros(v.values.size)]))


def even_split(v: ValueTable) -> InteractionSet:
    """The even split (delta = 0): u_and = u_or = v/2 on every nonempty
    subset, with u_and[0] = v[0]. Its AND row is the Huber path's start."""
    u_and = 0.5 * v.values
    u_or = u_and.copy()
    u_and[0], u_or[0] = v.values[0], 0.0
    return _closed_form(v, np.stack([mobius_and(u_and), mobius_or(u_or)]))


@lru_cache(maxsize=None)
def _parity_signs(n: int) -> np.ndarray:
    """(-1)^|S| per bitmask S, read-only."""
    signs = 1.0 - 2.0 * (order_counts(n) & 1)
    signs.flags.writeable = False
    return signs


def _split_effects(x: np.ndarray, or_base: np.ndarray, denoise: bool) -> np.ndarray:
    """Rows (p, q) of the packed variables x, empty-set slots zeroed.

    x holds the AND effects p[1:], then delta[1:] when denoising. The OR
    effects are what the LP's rows leave them (module docstring):
        q = S p + mobius_or(v - delta),   S p = (-1)^|S| * zeta_supersets(p),
    so v enters only through or_base = mobius_or(v), and p[0] (which
    reaches only the zeroed q[0]) can be left at 0.
    """
    size = or_base.size
    effects = np.zeros((2, size))
    effects[0, 1:] = x[:size - 1]
    effects[1] = or_base + _parity_signs(size.bit_length() - 1) * zeta_supersets(effects[0])
    if denoise:
        effects[1] -= mobius_or(np.concatenate([[0.0], x[size - 1:]]))
    effects[1, 0] = 0.0
    return effects


def _loss_grad(x: np.ndarray, mu: float, or_base: np.ndarray, denoise: bool
               ) -> tuple[float, np.ndarray]:
    """Huber-smoothed L1 (width mu) of _split_effects(x) and its gradient in x.

    The gradient applies the adjoints of _split_effects to the clipped
    effects r: r_and + subset sums of (-1)^|S| * r_or for p and, when
    denoising, the adjoint of -mobius_or, mobius_and of reversed r_or, for
    delta.
    """
    size = or_base.size
    effects = _split_effects(x, or_base, denoise)
    mag = np.abs(effects)
    f = float(np.where(mag <= mu, mag * mag / (2 * mu), mag - mu / 2).sum())
    r = np.clip(effects / mu, -1.0, 1.0)
    g_p = r[0] + zeta_subsets(_parity_signs(size.bit_length() - 1) * r[1])
    if not denoise:
        return f, g_p[1:]
    return f, np.concatenate([g_p[1:], mobius_and(r[1, ::-1])[1:]])


class _CscMatrix(NamedTuple):
    """A sparse matrix in compressed-column form, the arrays HiGHS takes:
    column j holds data[indptr[j]:indptr[j + 1]] in the rows
    indices[indptr[j]:indptr[j + 1]], ascending."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


def _kron_entries(factors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the nonzeros of the kron of the 2x2 factors,
    the first factor on the top bit, as the nonempty block: rows and cols
    count from subset 1."""
    rows = cols = np.zeros(1, dtype=np.int64)
    values = np.ones(1)
    for factor in factors:
        fr, fc = np.nonzero(factor)
        rows = (2 * rows[:, None] + fr).ravel()
        cols = (2 * cols[:, None] + fc).ravel()
        values = (values[:, None] * factor[fr, fc]).ravel()
    keep = (rows > 0) & (cols > 0)
    return rows[keep] - 1, cols[keep] - 1, values[keep]


@lru_cache(maxsize=None)
def _lp_matrix(n: int, denoise: bool) -> _CscMatrix:
    """Equality matrix R'[S, -S, -I, I] (then R'K when denoising) of _lp_sparsify.

    Rows and columns run over the nonempty subsets. S = kron^n T with
    T = [[1,1],[0,-1]] is (-1)^|S| times the superset sums, and
    K = kron^n [[0,1],[1,-1]] equals S @ M_and = -M_or. R is the kron of T
    on the top k = n // 2 bits and of I on the rest: T is an involution, so
    R is its own inverse, and R[1:, 0] = 0 makes the nonempty block R' one
    too. The rows are R' times those of [S, -S, -I, I, K], with the same
    feasible set; R'S' has 2**k * 3**(n-k) nonzeros, R' 3**k * 2**(n-k) and
    R'K' 3**n (per bit T @ K's factor is [[1,0],[-1,1]]), against 3**n per
    block for S' and K'. The first two multiply to 6**n, so k = n // 2
    minimizes their sum (AM-GM). The q- block is R' itself.

    The blocks are kron products of the per-bit factors, built on their
    nonzeros' indices; every entry is +-1. Each column's rows are ascending,
    int32 indices, as scipy.sparse builds them. Cached per (n, denoise),
    read-only.
    """
    t = np.array([[1.0, 1.0], [0.0, -1.0]])
    k_bit = np.array([[0.0, 1.0], [1.0, -1.0]])
    r_bits = [t if bit < n // 2 else np.eye(2) for bit in range(n)]
    rs, r = (_kron_entries([r_bit @ f for r_bit in r_bits]) for f in (t, np.eye(2)))
    # the column blocks p+, p-, q+, q- (then delta), each with its sign
    blocks = [(rs, 1.0), (rs, -1.0), (r, -1.0), (r, 1.0)]
    if denoise:
        blocks.append((_kron_entries([r_bit @ k_bit for r_bit in r_bits]), 1.0))
    m = (1 << n) - 1
    rows = np.concatenate([b[0] for b, _ in blocks])
    cols = np.concatenate([b[1] + i * m for i, (b, _) in enumerate(blocks)])
    values = np.concatenate([sign * b[2] for b, sign in blocks])
    order = np.lexsort((rows, cols))
    indptr = np.zeros(len(blocks) * m + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=len(blocks) * m), out=indptr[1:])
    matrix = _CscMatrix(values[order], rows[order].astype(np.int32), indptr,
                        (m, len(blocks) * m))
    for arr in matrix[:3]:
        arr.flags.writeable = False
    return matrix


class _LpModel(NamedTuple):
    """The HiGHS instance of one (n, denoise) and what _lp_solve needs with it.

    core is scipy's private module ``scipy.optimize._highspy._core``
    (_highs_core); highs is the instance, holding the options; lp is the
    HighsLp of _lp_matrix that each solve fills in and passes to it."""

    core: object
    highs: object
    lp: object


def _highs_core():
    """scipy's private HiGHS bindings, ``scipy.optimize._highspy._core``,
    loaded alone: ``import scipy.optimize`` loads 321 scipy modules
    (scipy 1.17), ``scipy.sparse`` among them.

    The extension is found in scipy's package directory
    (``find_spec("scipy")`` imports nothing) and registered in sys.modules
    under its own name before it runs, so a later ``import scipy.optimize``
    reuses it, as it must: pybind11 cannot register its types twice. A
    module loaded already, say by the Huber path, is returned as it is.
    """
    name = "scipy.optimize._highspy._core"
    core = sys.modules.get(name)
    if core is not None:
        return core
    # the package directory of the module, scipy/optimize/_highspy
    dirs = [os.path.join(d, *name.split(".")[1:-1])
            for d in importlib.util.find_spec("scipy").submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is None:
        raise ImportError(f"no {name} in {dirs}")
    core = importlib.util.module_from_spec(spec)
    sys.modules[name] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[name]
        raise
    return core


@lru_cache(maxsize=None)
def _lp_model(n: int, denoise: bool) -> _LpModel:
    """The L1 LP of _lp_solve and the one HiGHS instance that solves it,
    built once per (n, denoise).

    The HighsLp holds the matrix of _lp_matrix, the costs, the column bounds
    (a zero delta box) and zero row bounds, so that it is a valid model
    before any table's bounds are set. The costs are
    1 + LP_ORDER_WEIGHT * |S|**2 on p+-, q+- (S the column's subset) and 0 on
    delta: the tie-break toward low orders of the module docstring. The
    instance gets the options that
    ``linprog(method="highs-ds", options={"presolve": False})`` sets:
    simplex, dual strategy, presolve off, no output; and scaling off, which
    saves its setup on every solve; then the model. Only
    the row bounds, the delta box and the pivot limit change per table
    (_lp_solve), so solves must not run in parallel threads. A HiGHS status
    other than kOk raises NumericalError: an instance whose passModel failed
    holds no valid model, and further calls on it can crash the process
    (changeRowBounds did).
    """
    core = _highs_core()
    matrix = _lp_matrix(n, denoise)
    rows, cols = matrix.shape
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cols
    lp.num_row_ = lp.a_matrix_.num_row_ = rows
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    order = order_counts(n)[1:].astype(float)
    cost = np.zeros(cols)
    cost[:4 * rows] = np.tile(1.0 + LP_ORDER_WEIGHT * order ** 2, 4)
    lp.col_cost_ = cost
    lp.col_lower_, lp.col_upper_ = _lp_col_bounds(rows, cols, 0.0)
    lp.row_lower_ = lp.row_upper_ = np.zeros(rows)
    options = core.HighsOptions()
    options.presolve = "off"
    options.solver = "simplex"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    # every matrix entry is +-1, so there is nothing to scale
    options.simplex_scale_strategy = 0
    options.output_flag = options.log_to_console = False
    highs = core._Highs()
    _highs_ok(core, highs.passOptions(options), "passOptions")
    _highs_ok(core, highs.passModel(lp), "passModel")
    return _LpModel(core, highs, lp)


def _lp_col_bounds(m: int, cols: int, zeta: float) -> tuple[np.ndarray, np.ndarray]:
    """Column bounds: p+-, q+- in [0, inf), then delta in [-zeta, zeta]."""
    lower, upper = np.zeros(cols), np.full(cols, np.inf)
    lower[4 * m:], upper[4 * m:] = -zeta, zeta
    return lower, upper


def _highs_ok(core, status, call: str) -> None:
    if status != core.HighsStatus.kOk:
        raise NumericalError(f"HiGHS {call} returned {status}")


def _lp_rhs(values: np.ndarray) -> np.ndarray:
    """The row bounds R'K v of _lp_solve: mobius_and of the table with its
    low n - n // 2 bits complemented, at the nonempty subsets (module
    docstring)."""
    size = values.size
    n = size.bit_length() - 1
    low = (1 << (n - n // 2)) - 1
    return mobius_and(values[np.arange(size) ^ low])[1:]


def _lp_solve(values: np.ndarray, zeta: float, denoise: bool, maxiter: int | None = None
              ) -> tuple[np.ndarray | None, int]:
    """One HiGHS dual-simplex solve of the L1 LP of the table values, as
    (vertex, pivots): the vertex's columns, or None at the pivot limit.

    The LP is the module docstring's: the rows S p - q + K delta = K v over
    the m = 2**n - 1 nonempty subsets, with p = i_and and q = i_or each split
    into nonnegative parts, delta in [-zeta, zeta], and _lp_model's order
    weights as the costs of p+- and q+-. HiGHS gets those rows times R'
    (_lp_matrix), whose right-hand side R'K v is one transform of the table
    (_lp_rhs). The vertex's L1 is abs(vertex[:4 * m]).sum().

    The solve runs on _lp_model's instance of (n, denoise): it writes the
    table's row bounds (and delta box) into the cached model and passes it
    to the instance, which drops the previous model with its basis and
    solution, so every solve starts from the slack basis as on a fresh
    instance; then it sets the pivot limit, maxiter or none. The LP is
    always feasible and bounded, so a HiGHS model status other than optimal
    or the pivot limit raises NumericalError. The vertex and the pivots are
    linprog's exactly when linprog gets the same costs and row bounds.

    ``sparsify`` hands it a table at unit spread (module docstring), whose
    row bounds stay below 2**n and delta box below 0.02, far inside HiGHS's
    infinite bound of 1e20.
    """
    m = values.size - 1
    core, highs, lp = _lp_model(m.bit_length(), denoise)
    lp.row_lower_ = lp.row_upper_ = _lp_rhs(values)
    if denoise:
        lp.col_lower_, lp.col_upper_ = _lp_col_bounds(m, lp.num_col_, zeta)
    _highs_ok(core, highs.passModel(lp), "passModel")
    _highs_ok(core, highs.setOptionValue("simplex_iteration_limit",
                                         core.kHighsIInf if maxiter is None else maxiter),
              "setOptionValue")
    highs.run()
    status = highs.getModelStatus()
    pivots = highs.getInfo().simplex_iteration_count
    if status == core.HighsModelStatus.kIterationLimit:
        return None, pivots
    if status != core.HighsModelStatus.kOptimal:
        raise NumericalError(
            f"LP solve failed: HiGHS model status {highs.modelStatusToString(status)}")
    return np.fromiter(highs.getSolution().col_value, float, count=lp.num_col_), pivots


def _lp_sparsify(values: np.ndarray, zeta: float, denoise: bool):
    """The exact L1 minimum of the table values as one linear program.

    Returns the vertex as (effects, delta): effects are the (2, 2**n) rows
    of the vertex's own effects p = p+ - p- (AND) and q = q+ - q- (OR), with
    the empty-set slots 0, so a slot the vertex holds at zero is exactly
    0.0; delta is the vertex's, with delta[0] = 0, and zero without
    denoising. A delta entry past its box by more than 1e-12 (the table is
    at unit spread) is clipped into it, and the clip is folded into q
    (module docstring).
    At n = LP_MAX_N the dual simplex gets 2**(n-1) pivots, and None is
    returned when it needs more.
    """
    m = values.size - 1
    n = m.bit_length()
    x = _lp_solve(values, zeta, denoise, 2 ** (n - 1) if n == LP_MAX_N else None)[0]
    if x is None:
        return None
    effects = np.zeros((2, m + 1))
    p_q = x[:4 * m].reshape(2, 2, m)      # rows (p+, p-), (q+, q-)
    effects[:, 1:] = p_q[:, 0] - p_q[:, 1]
    delta = np.zeros(m + 1)
    if not denoise:
        return effects, delta
    delta[1:] = raw = x[4 * m:]
    # a basic delta can overshoot its bounds by the solver's tolerance
    past = np.abs(raw) > zeta + 1e-12
    if past.any():
        clipped = delta.copy()
        clipped[1:][past] = np.clip(raw[past], -zeta, zeta)
        effects[1] -= mobius_or(clipped - delta)
        effects[1, 0] = 0.0
        delta = clipped
    return effects, delta


class Sparsified(NamedTuple):
    """What ``sparsify`` solved for. interactions rebuild v - delta; delta
    has delta[0] = 0 and is zero without denoising; solver is "lp",
    "huber", or empty where no solver ran."""

    interactions: InteractionSet
    delta: np.ndarray
    solver: str


def _huber_sparsify(v: ValueTable, denoise: bool) -> Sparsified:
    """The Huber path of ``sparsify``: the best of the even split, each
    stage's iterate of a Huber-smoothed L1 continuation from it, and
    all-AND.

    The variables are the LP's, p and (with box bounds) delta, starting at
    the even split's; the effects are ``_split_effects``'. Each stage of
    SMOOTHING_STAGES shrinks the Huber width and starts L-BFGS-B from the
    previous stage's iterate. An iterate replaces the best split so far only
    if its L1 is lower by more than CONVERGENCE_EPS (relative); all-AND only
    if it is lower at all. The Huber widths are the stages' fractions of the
    table's spread max|v - v(empty)|, so adding a constant to v moves only
    the bias; ``sparsify`` hands it a nonconstant table at unit spread
    (module docstring), whose effects cannot overflow.
    """
    minimize = sys.modules[__name__].minimize
    values = v.values
    size = values.size
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    effects, delta = even_split(v).effects, np.zeros(size)
    loss = float(np.abs(effects).sum())
    or_base = mobius_or(values)
    spread = 2 * v.half_spread()
    bounds = [(None, None)] * (size - 1) + [(-zeta, zeta)] * (size - 1) if denoise else None
    # x packs p[1:], then delta[1:] when denoising
    x = np.concatenate([effects[0, 1:], np.zeros(size - 1 if denoise else 0)])
    for stage in SMOOTHING_STAGES:
        x = minimize(_loss_grad, x, args=(stage * spread, or_base, denoise),
                     jac=True, method="L-BFGS-B", bounds=bounds,
                     options={"maxiter": HUBER_MAX_ITERS, "ftol": 1e-14,
                              "gtol": 1e-12}).x
        it_effects = _split_effects(x, or_base, denoise)
        it_loss = float(np.abs(it_effects).sum())
        if not np.isfinite(it_loss):
            raise NumericalError("non-finite loss during continuation")
        if it_loss < loss - CONVERGENCE_EPS * loss:
            loss, effects = it_loss, it_effects
            delta = np.concatenate([[0.0], x[size - 1:]]) if denoise else np.zeros(size)
    alland = all_and(v)
    if float(np.abs(alland.effects).sum()) < loss:
        return Sparsified(alland, np.zeros(size), "huber")
    return Sparsified(_interaction_set(v, effects), delta, "huber")


def sparsify(v: ValueTable, denoise: bool = True) -> Sparsified:
    """Minimize sum |I_and| + |I_or| over (p, delta); see module docstring.

    With ``denoise``, delta is learned in the box |delta| <= ZETA_FRACTION *
    v.gap(); without it, delta = 0. The result's ``solver`` names the path:

    - "lp", for n <= LP_MAX_N when the vertex fits its pivot budget: the
      vertex's own effects and delta, as ``_lp_sparsify`` returns them.
      Its L1 is at most 1 + LP_ORDER_WEIGHT * n**2 times that of any
      feasible split, the closed forms included; where the minimum is not
      unique, the order weights pick the one of least sum |S|**2 * |I_S|.
    - "huber", for n > LP_MAX_N or when the LP exhausts its pivot budget:
      what ``_huber_sparsify`` returns, the best of the even split, the
      continuation's iterates and all-AND.
    - empty for a table of spread 0 (a constant one, n = 0 included): the
      bias rebuilds it, so it gets zero effects and delta, and no solver
      runs.

    Either solver gets the table rescaled to unit spread, u = 2**-e * v, and
    the effects and delta it returns are scaled back by 2**e (module
    docstring), so sparsify(2**k * v) is 2**k * sparsify(v) bit for bit. A
    table whose effects' L1 overflows float64 raises ValueError.
    """
    values = v.values
    half_spread = v.half_spread()
    if not half_spread:
        # the bias rebuilds a constant table: no effect, nothing to solve
        zeros = np.zeros(values.size)
        return Sparsified(_interaction_set(v, np.stack([zeros, zeros])), zeros, "")
    e = int(np.frexp(half_spread)[1]) + 1
    u = replace(v, values=np.ldexp(values, -e))
    zeta = ZETA_FRACTION * u.gap() if denoise else 0.0
    vertex = _lp_sparsify(u.values, zeta, denoise) if v.n <= LP_MAX_N else None
    solver = "huber" if vertex is None else "lp"
    if vertex is None:
        huber = _huber_sparsify(u, denoise)
        vertex = huber.interactions.effects, huber.delta
    effects, delta = (np.ldexp(a, e) for a in vertex)
    if not np.isfinite(np.abs(effects).sum()):
        # v is finite, so its effects or their L1 overflow float64: an input error
        raise ValueError("the table's effects overflow float64")
    return Sparsified(_interaction_set(v, effects), delta, solver)


def salience_threshold(tables, fraction: float = DEFAULT_SALIENCE_FRACTION) -> float:
    """tau = fraction * mean over samples of |v(x_N) - v(x_empty)|."""
    if fraction < 0 or np.isnan(fraction):
        raise ValueError("the salience fraction must be nonnegative")
    gaps = [t.gap() for t in tables]
    if not gaps:
        raise ValueError("salience threshold needs at least one table")
    return fraction * float(np.mean(gaps))


def filter_salient(iset: InteractionSet, tau: float) -> InteractionSet:
    """Sparse view keeping only the effects ``iset.salient(tau)`` marks."""
    return replace(iset, effects=np.where(iset.salient(tau), iset.effects, 0.0))
