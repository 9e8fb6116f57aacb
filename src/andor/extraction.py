"""AND-OR interaction extraction and L1 sparsification.

The masked outputs are split as u_and[L] = 0.5*(v[L] - delta[L]) + gamma[L]
and u_or[L] = 0.5*(v[L] - delta[L]) - gamma[L], so u_and + u_or = v - delta
always holds. The empty-set entries are pinned (delta[0] = 0,
gamma[0] = 0.5*v[0]) so the all-masked output is attributed to the AND side
and the bias is identifiable. ``sparsify`` learns (gamma, delta) by
minimizing the total effect magnitude.

Both solvers work in interaction-space coordinates: gamma is parametrized as
the subset sum of a free vector theta, which makes the AND effects an affine
*identity* in theta (the subset-sum and difference transforms are inverses),
and the subset sums cancel against the Mobius transforms (see
``_theta_effects``). The problem is then a linear program, and ``sparsify``
picks its solver from the table size n:

- n <= LP_MAX_N: the exact L1 minimum, one HiGHS dual-simplex solve of that
  LP (``_lp_sparsify``). At n = LP_MAX_N the simplex gets 2**(n-1) pivots:
  a sparse table (a few effects) needs a few dozen, a dense one (random or
  net outputs) thousands. A table whose LP needs more goes to the Huber
  continuation below, from the same start, and comes out exactly as it
  would without the LP attempt.
- n > LP_MAX_N: a smoothed-L1 (Huber) continuation with L-BFGS-B
  (``_smoothed_sparsify``), which stops near the minimum. In the raw gamma
  coordinates the objective's curvature spans a factor exponential in n and
  first-order methods stall; in theta coordinates it converges in a few
  thousand quasi-Newton steps, each evaluation needing one superset sum and
  its adjoint, plus one batched difference transform each way when
  denoising.

``benchmarks/bench_transforms.py`` prints the pivots and times that set the
cutoff and the budget, per table; CHANGES.md keeps the measurements.

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

The written effects. On the LP path they are the vertex's own: p = p+ - p-
(AND) and q = q+ - q- (OR), with the empty-set slots 0. A slot the vertex
holds at zero is an exact 0.0, and the history's last entry is the L1 of
what is written. The decomposition is theta = p - a + mobius_and(delta/2)
(``_lp_solve``), gamma its subset sum; ``extract`` on it gives the same
effects up to rounding. A basic delta column can pass its box by the
solver's feasibility tolerance. Where it passes it by no more than the
slack ``Decomposition.validate`` allows (``_box_slack``), the vertex's
delta is kept. Beyond that, delta is clipped into the box and the clip
Delta = delta_clipped - delta_raw is folded into the OR row as
q -= mobius_or(Delta): the rows give q = S p - S a + b + K delta with
K = -M_or, so the folded effects rebuild v - delta_clipped as the vertex's
rebuilt v - delta_raw. Unfolded, they would miss the returned delta by the
overshoot. The Huber path has no exact zeros to carry, and its effects,
like those of the closed forms, are ``extract``'s.

``sparsify`` runs the whole solve in one place: the start at the even
split, the solver choice, the best-iterate rule and its loss history, and
the all-AND fallback (its docstring lists the steps). The solvers only
return iterates: the LP its vertex and its effects, or None when the pivot
budget runs out; the continuation one iterate per stage.

scipy is imported on the first solve, not with the module: only ``sparsify``
needs it. ``minimize`` stays a module attribute (see ``__getattr__``).

The LP reaches HiGHS through the bindings scipy ships in its private module
``scipy.optimize._highspy._core``, not through ``linprog``. ``_lp_model``
builds one HiGHS instance per (n, denoise), once per process, with the
options of ``linprog(method="highs-ds")`` with presolve off, and one HiGHS
model holding the matrix and the costs. Each solve writes the table's row
bounds (and delta box) into the model, passes it to the instance, which
drops the previous solve's basis and solution, sets the pivot limit, runs
it and reads the vertex and the status. The vertex and the pivot count are
bit-identical to linprog's given the same costs (the tests pass linprog
the model's costs and compare the two, also for solves of several modes
interleaved in one process). linprog rebuilds the model and a fresh HiGHS
instance on every call and builds bound marginals andor never reads; the
bindings set row bounds only one row per call (``changeRowBounds``), which
costs more than passing the whole model again. The module is not scipy's
public API, so ``_lp_model`` is the one function that imports it, and a
scipy release that changes it fails the tests loudly.
"""

import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import (mobius_and, mobius_or, order_counts, table_size,
                      zeta_subsets, zeta_supersets)
from .models import ValueTable

SPARSIFY_MAX_N = 20
# The LP solves n <= LP_MAX_N; at n = LP_MAX_N its dual simplex stops after
# 2**(n-1) pivots.
LP_MAX_N = 10
# The LP's cost of an effect on subset S is 1 + LP_ORDER_WEIGHT * |S|**2, a
# tie-break toward low orders (see the module docstring).
LP_ORDER_WEIGHT = 1e-6
# An iterate replaces the best one only if its L1 is lower by this much,
# relative.
CONVERGENCE_EPS = 1e-9
# Huber widths of the continuation's stages, as fractions of the table's
# output scale, largest first.
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


def _box_slack(zeta: float) -> float:
    """How far delta may pass its box [-zeta, zeta] and still be valid."""
    return 1e-12 * max(1.0, zeta)


@dataclass
class Decomposition:
    """Learnable AND/OR split (gamma) with box-bounded denoising (delta)."""

    gamma: np.ndarray
    delta: np.ndarray
    zeta_bound: float = 0.0
    # The sparsify solver that ran, "lp" or "huber"; empty for closed forms.
    solver: str = ""

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.delta = np.asarray(self.delta, dtype=np.float64)
        if self.gamma.shape != self.delta.shape:
            raise ValueError("gamma and delta must have equal shape")
        if self.zeta_bound < 0:
            raise ValueError("zeta_bound must be nonnegative")

    def validate(self, v: ValueTable) -> None:
        if np.max(np.abs(self.delta)) > self.zeta_bound + _box_slack(self.zeta_bound):
            raise ValueError("delta leaves its box [-zeta, zeta]")
        if self.delta[0] != 0.0:
            raise ValueError("delta[empty] must be 0")
        if abs(self.gamma[0] - 0.5 * v.values[0]) > 1e-9 * max(1.0, abs(v.values[0])):
            raise ValueError("gamma[empty] must equal 0.5 * v(x_empty)")


def all_and_decomposition(v: ValueTable) -> Decomposition:
    """gamma = 0.5*v everywhere: u_and = v, u_or = 0."""
    return Decomposition(gamma=0.5 * v.values, delta=np.zeros_like(v.values))


def even_split_decomposition(v: ValueTable) -> Decomposition:
    """gamma = 0 beyond the empty-set pin: u_and = u_or on L != empty."""
    gamma = np.zeros_like(v.values)
    gamma[0] = 0.5 * v.values[0]
    return Decomposition(gamma=gamma, delta=np.zeros_like(v.values))


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


def split_components(v: ValueTable, d: Decomposition) -> tuple[np.ndarray, np.ndarray]:
    """Return (u_and, u_or); their sum equals v - delta entrywise."""
    d.validate(v)
    denoised = 0.5 * (v.values - d.delta)
    return denoised + d.gamma, denoised - d.gamma


def extract(v: ValueTable, d: Decomposition) -> InteractionSet:
    """Closed-form AND-OR effects for a given decomposition."""
    u_and, u_or = split_components(v, d)
    effects = np.stack([mobius_and(u_and), mobius_or(u_or)])
    bias = float(effects[0, 0])
    effects[:, 0] = 0.0
    return InteractionSet(n=v.n, effects=effects, bias=bias, label=v.label)


@lru_cache(maxsize=None)
def _parity_signs(n: int) -> np.ndarray:
    """(-1)^|S| per bitmask S, read-only."""
    signs = 1.0 - 2.0 * (order_counts(n) & 1)
    signs.flags.writeable = False
    return signs


def _objective_base(values: np.ndarray) -> np.ndarray:
    """Rows mobius_and(v/2) and mobius_or(v/2): the effects at theta = delta = 0."""
    half = 0.5 * values
    return np.stack([mobius_and(half), mobius_or(half)])


def _theta_effects(x: np.ndarray, base: np.ndarray, denoise: bool) -> np.ndarray:
    """Rows (i_and, i_or) of the packed variables x, empty-set slots zeroed.

    x holds theta[1:], then delta[1:] when denoising; gamma = zeta_subsets(theta)
    and h = (v - delta)/2. The subset sums cancel against the Mobius transforms:
        i_and = mobius_and(h) + theta
        i_or  = mobius_or(h) + (-1)^|S| * sum_{T superset S} theta[T]
    so v enters only through base, and theta[0] (which reaches only the
    zeroed i_or[0]) can be left at 0.
    """
    size = base.shape[-1]
    theta = np.zeros(size)
    theta[1:] = x[:size - 1]
    effects = base.copy()
    effects[0] += theta
    effects[1] += _parity_signs(size.bit_length() - 1) * zeta_supersets(theta)
    if denoise:
        half_delta = np.zeros(size)
        half_delta[1:] = 0.5 * x[size - 1:]
        # one batched call: rows mobius_and(delta/2) and -mobius_or(delta/2)
        shifts = mobius_and(np.stack([half_delta, half_delta[::-1]]))
        effects[0] -= shifts[0]
        effects[1] += shifts[1]
    effects[:, 0] = 0.0
    return effects


def _loss_grad(x: np.ndarray, mu: float, base: np.ndarray, denoise: bool
               ) -> tuple[float, np.ndarray]:
    """Huber-smoothed L1 (width mu) of _theta_effects(x) and its gradient in x.

    The gradient applies the adjoints of _theta_effects to the clipped
    effects p: p_and + (-1)^|S|-weighted subset sums of p_or for theta and,
    when denoising, the adjoints of -mobius_and(./2) and -mobius_or(./2) for
    delta in one batched call.
    """
    size = base.shape[-1]
    effects = _theta_effects(x, base, denoise)
    mag = np.abs(effects)
    f = float(np.where(mag <= mu, mag * mag / (2 * mu), mag - mu / 2).sum())
    p = np.clip(effects / mu, -1.0, 1.0)
    g_theta = p[0] + zeta_subsets(_parity_signs(size.bit_length() - 1) * p[1])
    if not denoise:
        return f, g_theta[1:]
    # rows mobius_and(reversed p_and) and mobius_and(reversed p_or)
    back = mobius_and(p[:, ::-1])
    g_delta = 0.5 * (back[1] - back[0][::-1])
    return f, np.concatenate([g_theta[1:], g_delta[1:]])


def _smoothed_sparsify(v: ValueTable, denoise: bool, base: np.ndarray,
                       zeta: float, x: np.ndarray) -> list[np.ndarray]:
    """Huber-smoothed L1 continuation from x; returns the iterate of each stage.

    Variables are theta (gamma = zeta_subsets(theta), so the AND effects are
    base + theta exactly) and, when denoising, delta with box bounds. Each
    stage of SMOOTHING_STAGES shrinks the Huber width and starts from the
    previous stage's iterate.
    """
    minimize = sys.modules[__name__].minimize
    scale = max(v.gap(), float(np.max(np.abs(v.values))), 1e-12)
    m = v.values.size - 1
    bounds = [(None, None)] * m + [(-zeta, zeta)] * m if denoise else None
    iterates = []
    for stage in SMOOTHING_STAGES:
        res = minimize(_loss_grad, x, args=(stage * scale, base, denoise),
                       jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": HUBER_MAX_ITERS, "ftol": 1e-14,
                                "gtol": 1e-12})
        x = res.x
        iterates.append(x)
    return iterates


@lru_cache(maxsize=None)
def _lp_matrix(n: int, denoise: bool):
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
    minimizes their sum (AM-GM). The q- block is R' itself. Cached per
    (n, denoise), read-only.
    """
    import scipy.sparse as sp
    t = np.array([[1.0, 1.0], [0.0, -1.0]])
    k_bit = np.array([[0.0, 1.0], [1.0, -1.0]])
    rs = r = rk = sp.csr_array(np.ones((1, 1)))
    for bit in range(n):
        r_bit = t if bit < n // 2 else np.eye(2)
        rs = sp.kron(rs, sp.csr_array(r_bit @ t), format="csr")
        r = sp.kron(r, sp.csr_array(r_bit), format="csr")
        rk = sp.kron(rk, sp.csr_array(r_bit @ k_bit), format="csr")
    rs, r = rs[1:, 1:], r[1:, 1:]
    matrix = sp.hstack([rs, -rs, -r, r] + ([rk[1:, 1:]] if denoise else []), format="csc")
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.flags.writeable = False
    return matrix


class _LpResult(NamedTuple):
    """One solve of the L1 LP: status 0 (optimal), 1 (pivot limit) or 4 (a
    failure), linprog's codes; x is the vertex when optimal, else None. The
    LP is always feasible and bounded, so linprog's 2 and 3 cannot occur.
    objective is the order-weighted cost of _lp_model, not the L1; the
    vertex's L1 is abs(x[:4 * m]).sum() over its m = 2**n - 1 rows."""

    status: int
    message: str
    x: np.ndarray | None
    pivots: int
    objective: float


class _LpModel(NamedTuple):
    """The HiGHS instance of one (n, denoise) and what _lp_solve needs with it.

    core is scipy's private module ``scipy.optimize._highspy._core``; highs
    is the instance, holding the options; lp is the HighsLp of _lp_matrix
    that each solve fills in and passes to it; p_block and q_block are the
    p+ and q+ column blocks of the matrix, which give the row bounds."""

    core: object
    highs: object
    lp: object
    p_block: object
    q_block: object


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
    simplex, dual strategy, presolve off, no output; then the model. Only
    the row bounds, the delta box and the pivot limit change per table
    (_lp_solve), so solves must not run in parallel threads. A HiGHS status
    other than kOk raises NumericalError: an instance whose passModel failed
    holds no valid model, and further calls on it can crash the process
    (changeRowBounds did).
    This is the one function that imports the module.
    """
    from scipy.optimize._highspy import _core
    matrix = _lp_matrix(n, denoise)
    rows, cols = matrix.shape
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cols
    lp.num_row_ = lp.a_matrix_.num_row_ = rows
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    order = order_counts(n)[1:].astype(float)
    cost = np.zeros(cols)
    cost[:4 * rows] = np.tile(1.0 + LP_ORDER_WEIGHT * order ** 2, 4)
    lp.col_cost_ = cost
    lp.col_lower_, lp.col_upper_ = _lp_col_bounds(rows, cols, 0.0)
    lp.row_lower_ = lp.row_upper_ = np.zeros(rows)
    options = _core.HighsOptions()
    options.presolve = "off"
    options.solver = "simplex"
    options.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = options.log_to_console = False
    highs = _core._Highs()
    _highs_ok(_core, highs.passOptions(options), "passOptions")
    _highs_ok(_core, highs.passModel(lp), "passModel")
    return _LpModel(_core, highs, lp, matrix[:, :rows], matrix[:, 2 * rows:3 * rows])


def _lp_col_bounds(m: int, cols: int, zeta: float) -> tuple[np.ndarray, np.ndarray]:
    """Column bounds: p+-, q+- in [0, inf), then delta in [-zeta, zeta]."""
    lower, upper = np.zeros(cols), np.full(cols, np.inf)
    lower[4 * m:], upper[4 * m:] = -zeta, zeta
    return lower, upper


def _highs_ok(core, status, call: str) -> None:
    if status != core.HighsStatus.kOk:
        raise NumericalError(f"HiGHS {call} returned {status}")


def _lp_solve(base: np.ndarray, zeta: float, denoise: bool, maxiter: int | None = None
              ) -> _LpResult:
    """One HiGHS dual-simplex solve of the L1 LP of _lp_sparsify.

    With p = i_and and q = i_or (each split into nonnegative parts) and
    a, b = base[:, 1:], the effects of _theta_effects satisfy
        S p - q + K delta = S a - b,   theta = p - a + mobius_and(delta/2),
    over the nonempty subsets, so minimizing sum p+- + q+- over that one
    block of 2**n - 1 rows, delta in [-zeta, zeta], is the L1 problem.
    HiGHS gets those rows times R' (_lp_matrix), so their right-hand side
    R'(S a - b) is the p+ block times a plus the q+ block times b. The
    costs are _lp_model's, 1 + LP_ORDER_WEIGHT * |S|**2 per effect: where
    the L1 minimum is not unique they pick the one of least
    sum |S|**2 * |I_S|, and otherwise move the L1 by at most
    LP_ORDER_WEIGHT * n**2 relative (module docstring).

    The solve runs on _lp_model's instance of (n, denoise): it writes the
    table's row bounds (and delta box) into the cached model and passes it
    to the instance, which drops the previous model with its basis and
    solution, so every solve starts from the slack basis as on a fresh
    instance; then it sets the pivot limit, maxiter or none (status 1 when
    hit). Like linprog, only an optimal solve returns x, and x and the
    pivots are linprog's exactly when linprog gets the same costs.
    """
    a, b = base[:, 1:]
    core, highs, lp, p_block, q_block = _lp_model(a.size.bit_length(), denoise)
    lp.row_lower_ = lp.row_upper_ = p_block @ a + q_block @ b
    if denoise:
        lp.col_lower_, lp.col_upper_ = _lp_col_bounds(a.size, lp.num_col_, zeta)
    _highs_ok(core, highs.passModel(lp), "passModel")
    _highs_ok(core, highs.setOptionValue("simplex_iteration_limit",
                                         core.kHighsIInf if maxiter is None else maxiter),
              "setOptionValue")
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    code = {core.HighsModelStatus.kOptimal: 0,
            core.HighsModelStatus.kIterationLimit: 1}.get(status, 4)
    x = np.array(highs.getSolution().col_value) if code == 0 else None
    return _LpResult(code, highs.modelStatusToString(status), x,
                     info.simplex_iteration_count, info.objective_function_value)


def _lp_sparsify(base: np.ndarray, zeta: float, denoise: bool):
    """The exact L1 minimum as one linear program.

    Returns the vertex as (x, effects): x packs theta[1:], then delta[1:]
    when denoising; effects are the (2, 2**n) rows of the vertex's own
    effects p = p+ - p- (AND) and q = q+ - q- (OR), with the empty-set slots
    0, so a slot the vertex holds at zero is exactly 0.0. A delta entry past
    its box by more than _box_slack is clipped into it, and the clip is
    folded into q (module docstring). At n = LP_MAX_N the dual simplex gets
    2**(n-1) pivots, and None is returned when it needs more.
    """
    m = base.shape[-1] - 1
    n = m.bit_length()
    res = _lp_solve(base, zeta, denoise, 2 ** (n - 1) if n == LP_MAX_N else None)
    if res.status == 1:
        return None
    if res.status != 0:
        raise NumericalError(f"LP solve failed: HiGHS model status {res.message}")
    effects = np.zeros((2, m + 1))
    p_q = res.x[:4 * m].reshape(2, 2, m)      # rows (p+, p-), (q+, q-)
    effects[:, 1:] = p_q[:, 0] - p_q[:, 1]
    theta = effects[0, 1:] - base[0, 1:]
    if not denoise:
        return theta, effects
    delta = np.zeros(m + 1)
    delta[1:] = raw = res.x[4 * m:]
    # a basic delta can overshoot its bounds by the solver's tolerance
    past = np.abs(raw) > zeta + _box_slack(zeta)
    if past.any():
        clipped = delta.copy()
        clipped[1:][past] = np.clip(raw[past], -zeta, zeta)
        effects[1] -= mobius_or(clipped - delta)
        effects[1, 0] = 0.0
        delta = clipped
    theta += 0.5 * mobius_and(delta)[1:]
    return np.concatenate([theta, delta[1:]]), effects


def sparsify(v: ValueTable, denoise: bool = True
             ) -> tuple[Decomposition, InteractionSet, list[float]]:
    """Minimize sum |I_and| + |I_or| over (gamma, delta); see module docstring.

    With ``denoise``, delta is learned in the box |delta| <= ZETA_FRACTION *
    v.gap(); without it, delta = 0. The solve, in order:

    1. Start from the even split (gamma zero beyond the empty-set pin,
       delta = 0); its L1 opens the loss history.
    2. For n <= LP_MAX_N, solve the LP; its vertex is the one iterate.
       Where the L1 minimum is not unique, its order weights pick the
       minimum of least sum |S|**2 * |I_S| (module docstring). For
       n > LP_MAX_N, or when the LP exhausts its pivot budget, run the Huber
       continuation from the start; each stage gives one iterate. The
       decomposition's ``solver`` names the path, "lp" or "huber".
    3. An iterate replaces the best one so far only if its L1 is lower by
       more than CONVERGENCE_EPS (relative); the history records the best
       L1 after each iterate, so it never increases.
    4. If the all-AND closed form (always feasible) is below the best
       iterate, it is returned instead and its L1 ends the history.
    5. When the LP's vertex is returned, the effects are the vertex's own,
       with any delta clip folded in (module docstring), and its history
       entry is their L1. Otherwise they are ``extract(v, decomposition)``.
    """
    if v.n > SPARSIFY_MAX_N:
        raise ValueError(f"dense sparsify is capped at n <= {SPARSIFY_MAX_N}")
    values = v.values
    size = values.size
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    base = _objective_base(values)

    # the even split: gamma zero beyond the pin; x packs theta[1:], delta[1:]
    pin_only = np.zeros(size)
    pin_only[0] = 0.5 * values[0]
    x = mobius_and(pin_only)[1:]
    if denoise:
        x = np.concatenate([x, np.zeros(size - 1)])
    loss = float(np.abs(_theta_effects(x, base, denoise)).sum())
    if not np.isfinite(loss):
        # v is finite, so its effects overflow float64: an input error
        raise ValueError("the table's effects overflow float64")
    history = [loss]

    vertex = _lp_sparsify(base, zeta, denoise) if v.n <= LP_MAX_N else None
    if vertex is None:
        solver = "huber"
        iterates = ((it, _theta_effects(it, base, denoise))
                    for it in _smoothed_sparsify(v, denoise, base, zeta, x))
    else:
        solver, iterates = "lp", [vertex]
    effects = None
    for it, it_effects in iterates:
        it_loss = float(np.abs(it_effects).sum())
        if not np.isfinite(it_loss):
            raise NumericalError("non-finite loss during continuation")
        if it_loss < loss - CONVERGENCE_EPS * max(1.0, abs(loss)):
            loss, x, effects = it_loss, it, it_effects
        history.append(loss)

    theta = np.empty(size)
    theta[0] = pin_only[0]
    theta[1:] = x[:size - 1]
    gamma = zeta_subsets(theta)
    delta = np.zeros(size)
    if denoise:
        delta[1:] = x[size - 1:]
    # the all-AND effects are mobius_and(v) = 2 * base[0]
    alland_and = np.abs(2.0 * base[0])
    alland_and[0] = 0.0
    alland_loss = float(alland_and.sum())
    if alland_loss < loss:
        alland = all_and_decomposition(v)
        gamma, delta, effects = alland.gamma, alland.delta, None
        history.append(alland_loss)

    decomposition = Decomposition(gamma=gamma, delta=delta, zeta_bound=zeta,
                                  solver=solver)
    if solver == "lp" and effects is not None:
        iset = InteractionSet(n=v.n, effects=effects, bias=float(values[0]), label=v.label)
    else:
        iset = extract(v, decomposition)
    return decomposition, iset, history


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
