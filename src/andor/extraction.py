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
  LP (``_lp_sparsify``). Its equality matrix has about 3**n nonzeros. From
  n = LP_BUDGET_MIN_N on, the simplex gets 2**(n-1) pivots; a table whose LP
  needs more goes to the Huber continuation below, from the same start, and
  comes out exactly as it would without the LP attempt.
- n > LP_MAX_N: a smoothed-L1 (Huber) continuation with L-BFGS-B
  (``_smoothed_sparsify``), which stops near the minimum. In the raw gamma
  coordinates the objective's curvature spans a factor exponential in n and
  first-order methods stall; in theta coordinates it converges in a few
  thousand quasi-Newton steps, each evaluation needing one superset sum and
  its adjoint, plus one batched difference transform each way when
  denoising.

The cutoff and the budget were measured on one BLAS thread on a 2-core VM
(``benchmarks/bench_transforms.py`` prints pivots and times per table). Up to
n = 9 the LP was faster on every table (0.02-0.45 s against 0.2-1.5 s at
n = 9). At n = 10 it depends on how many pivots the table's LP needs: 160
sparse criterion-4 games needed 166-365 and solved in about 0.04 s against
0.38 s for Huber, which stopped 2.7-7.8% above their minimum; dense random
and net tables needed 3457-10980, and their uncapped LP took 0.9-4.2 s
against 0.8-2.5 s for Huber. The 2**(n-1) = 512-pivot budget separates the
two and costs a dense table about 0.1 s before its Huber solve. At n = 11
the LP took 7.5 s on a dense net table against 1.0 s for Huber. The LP's
matrix grows as 3**n, the continuation's work per evaluation as n * 2**n.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog, minimize

from .lattice import (mobius_and, mobius_or, order_counts, table_size,
                      zeta_subsets, zeta_supersets)
from .models import ValueTable

SPARSIFY_MAX_N = 20
LP_MAX_N = 10
# From this n on, the LP's dual simplex stops after 2**(n-1) pivots.
LP_BUDGET_MIN_N = 10
DEFAULT_SALIENCE_FRACTION = 0.02
DEFAULT_ZETA_FRACTION = 0.02


class NumericalError(RuntimeError):
    pass


class _PivotBudgetExhausted(Exception):
    """The LP needed more pivots than its budget; sparsify falls back to Huber."""


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
        tol = 1e-12 * max(1.0, self.zeta_bound)
        if np.max(np.abs(self.delta)) > self.zeta_bound + tol:
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
    """Extracted effects; the empty-set slots are zero, bias holds v(x_empty)."""

    n: int
    i_and: np.ndarray
    i_or: np.ndarray
    bias: float
    label: str = ""

    def __post_init__(self):
        self.i_and = np.asarray(self.i_and, dtype=np.float64)
        self.i_or = np.asarray(self.i_or, dtype=np.float64)
        if len(self.i_and) != table_size(self.n) or len(self.i_or) != table_size(self.n):
            raise ValueError("effect vectors must have length 2**n")
        if self.i_and[0] != 0.0 or self.i_or[0] != 0.0:
            raise ValueError("empty-set effects must be zero (bias holds the empty term)")

    def total_l1(self) -> float:
        return float(np.abs(self.i_and).sum() + np.abs(self.i_or).sum())

    def support(self, tau: float = 0.0) -> set[tuple[str, int]]:
        out = {("and", int(m)) for m in np.flatnonzero(np.abs(self.i_and) > tau)}
        out |= {("or", int(m)) for m in np.flatnonzero(np.abs(self.i_or) > tau)}
        return out


@dataclass
class SparsifyConfig:
    """Optimizer settings.

    max_iters is the Huber path's per-stage quasi-Newton cap (n > LP_MAX_N,
    and n >= LP_BUDGET_MIN_N tables whose LP exhausts its pivot budget); it
    does not bound the LP. On either path, 0 returns the even-split start
    unsolved.
    """

    max_iters: int = 2000
    convergence_eps: float = 1e-9
    zeta_fraction: float = DEFAULT_ZETA_FRACTION
    denoise: bool = True
    # Huber widths as fractions of the table's output span, largest first.
    smoothing_stages: tuple = (0.1, 0.01, 0.001)

    def __post_init__(self):
        if self.zeta_fraction < 0:
            raise ValueError("zeta_fraction must be nonnegative")
        if any(s <= 0 for s in self.smoothing_stages):
            raise ValueError("smoothing widths must be positive")


def split_components(v: ValueTable, d: Decomposition) -> tuple[np.ndarray, np.ndarray]:
    """Return (u_and, u_or); their sum equals v - delta entrywise."""
    d.validate(v)
    denoised = 0.5 * (v.values - d.delta)
    return denoised + d.gamma, denoised - d.gamma


def extract(v: ValueTable, d: Decomposition) -> InteractionSet:
    """Closed-form AND-OR effects for a given decomposition."""
    u_and, u_or = split_components(v, d)
    i_and = mobius_and(u_and)
    bias = float(i_and[0])
    i_and[0] = 0.0
    i_or = mobius_or(u_or)
    i_or[0] = 0.0
    return InteractionSet(n=v.n, i_and=i_and, i_or=i_or, bias=bias, label=v.label)


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


def _l1(x: np.ndarray, base: np.ndarray, denoise: bool) -> float:
    return float(np.abs(_theta_effects(x, base, denoise)).sum())


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


def _smoothed_sparsify(v: ValueTable, cfg: SparsifyConfig, base: np.ndarray,
                       zeta: float, x: np.ndarray):
    """Huber-smoothed L1 continuation from x; yields the iterate of each stage.

    Variables are theta (gamma = zeta_subsets(theta), so the AND effects are
    base + theta exactly) and, when denoising, delta with box bounds. Each
    stage shrinks the Huber width.
    """
    scale = max(v.gap(), float(np.max(np.abs(v.values))), 1e-12)
    m = v.values.size - 1
    bounds = [(None, None)] * m + [(-zeta, zeta)] * m if cfg.denoise else None
    for stage in cfg.smoothing_stages:
        res = minimize(_loss_grad, x, args=(stage * scale, base, cfg.denoise),
                       jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": cfg.max_iters, "ftol": 1e-14,
                                "gtol": 1e-12})
        x = res.x
        yield x


@lru_cache(maxsize=None)
def _lp_matrix(n: int, denoise: bool):
    """Equality matrix [S, -S, -I, I] (then K when denoising) of _lp_sparsify.

    Rows and columns run over the nonempty subsets. S = kron^n [[1,1],[0,-1]]
    is (-1)^|S| times the superset sums and K = kron^n [[0,1],[1,-1]] equals
    S @ M_and = -M_or, so each block has 3**n nonzeros (fewer for I).
    Cached per (n, denoise), read-only.
    """
    s = k = sp.csr_array(np.ones((1, 1)))
    for _ in range(n):
        s = sp.kron(s, sp.csr_array([[1.0, 1.0], [0.0, -1.0]]), format="csr")
        k = sp.kron(k, sp.csr_array([[0.0, 1.0], [1.0, -1.0]]), format="csr")
    s = s[1:, 1:]
    eye = sp.eye_array(s.shape[0], format="csr")
    matrix = sp.hstack([s, -s, -eye, eye] + ([k[1:, 1:]] if denoise else []), format="csc")
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.flags.writeable = False
    return matrix


def _lp_solve(base: np.ndarray, zeta: float, denoise: bool, maxiter: int | None = None):
    """One HiGHS dual-simplex solve of the L1 LP of _lp_sparsify.

    With p = i_and and q = i_or (each split into nonnegative parts) and
    a, b = base[:, 1:], the effects of _theta_effects satisfy
        S p - q + K delta = S a - b,   theta = p - a + mobius_and(delta/2),
    over the nonempty subsets, so minimizing sum p+- + q+- over that one
    block of 2**n - 1 rows, delta in [-zeta, zeta], is the L1 problem.
    Returns linprog's result; maxiter caps the pivots (status 1 when hit).
    """
    a, b = base[:, 1:]
    m = a.size
    matrix = _lp_matrix(m.bit_length(), denoise)
    cost = np.zeros(matrix.shape[1])
    cost[:4 * m] = 1.0
    bounds = np.zeros((matrix.shape[1], 2))
    bounds[:4 * m, 1] = np.inf
    bounds[4 * m:] = (-zeta, zeta)
    options = {"presolve": False}
    if maxiter is not None:
        options["maxiter"] = maxiter
    return linprog(cost, A_eq=matrix, b_eq=matrix[:, :m] @ a - b, bounds=bounds,
                   method="highs-ds", options=options)


def _lp_sparsify(v: ValueTable, cfg: SparsifyConfig, base: np.ndarray,
                 zeta: float, x: np.ndarray):
    """The exact L1 minimum as one linear program; yields its one iterate.

    From n = LP_BUDGET_MIN_N on the solve gets 2**(n-1) pivots and raises
    _PivotBudgetExhausted when it needs more. The start x is not needed: the
    dual simplex starts from its own basis.
    """
    budget = 2 ** (v.n - 1) if v.n >= LP_BUDGET_MIN_N else None
    res = _lp_solve(base, zeta, cfg.denoise, budget)
    if res.status == 1:
        raise _PivotBudgetExhausted
    if res.status != 0:
        raise NumericalError(f"LP solve failed: {res.message}")
    m = base.shape[-1] - 1
    delta = np.zeros(m + 1)
    if cfg.denoise:
        # basic variables can overshoot their bounds by the solver's tolerance
        delta[1:] = np.clip(res.x[4 * m:], -zeta, zeta)
    theta = res.x[:m] - res.x[m:2 * m] - base[0, 1:] + 0.5 * mobius_and(delta)[1:]
    yield np.concatenate([theta, delta[1:]]) if cfg.denoise else theta


def _best_iterate(v: ValueTable, cfg: SparsifyConfig, solver
                  ) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Run a solver from the even-split start and keep its best iterate.

    ``solver(v, cfg, base, zeta, x)`` yields packed variables (theta[1:],
    then delta[1:] when denoising). An iterate replaces the best one only if
    its true L1 loss is lower by more than convergence_eps (relative), which
    makes the recorded history non-increasing. With max_iters = 0 the start
    is returned unsolved.
    """
    values = v.values
    size = values.size
    zeta = cfg.zeta_fraction * v.gap() if cfg.denoise else 0.0
    theta_pin = 0.5 * values[0]
    base = _objective_base(values)

    # even-split start: gamma zero beyond the pin
    pin_only = np.zeros(size)
    pin_only[0] = theta_pin
    x = mobius_and(pin_only)[1:]
    if cfg.denoise:
        x = np.concatenate([x, np.zeros(size - 1)])

    best_x = x
    best = _l1(x, base, cfg.denoise)
    if not np.isfinite(best):
        raise NumericalError("non-finite loss at initialization")
    history = [best]
    if cfg.max_iters > 0:
        for x in solver(v, cfg, base, zeta, x):
            loss = _l1(x, base, cfg.denoise)
            if not np.isfinite(loss):
                raise NumericalError("non-finite loss during continuation")
            if loss < best - cfg.convergence_eps * max(1.0, abs(best)):
                best, best_x = loss, x
            history.append(best)

    theta = np.empty(size)
    theta[0] = theta_pin
    theta[1:] = best_x[:size - 1]
    delta = np.zeros(size)
    if cfg.denoise:
        delta[1:] = best_x[size - 1:]
    return zeta_subsets(theta), delta, best, history


def sparsify(v: ValueTable, cfg: SparsifyConfig | None = None
             ) -> tuple[Decomposition, InteractionSet, list[float]]:
    """Minimize sum |I_and| + |I_or| over (gamma, delta); see module docstring.

    Solves the LP for n <= LP_MAX_N and runs the Huber continuation above,
    or when the LP exhausts its pivot budget, starting from the even split;
    the decomposition's ``solver`` names the one that ran. With max_iters = 0
    the even-split start and its loss are returned unchanged. Otherwise, if
    the all-AND closed form (always feasible) ends up below the final
    iterate, it is returned instead.
    """
    if cfg is None:
        cfg = SparsifyConfig()
    if v.n > SPARSIFY_MAX_N:
        raise ValueError(f"dense sparsify is capped at n <= {SPARSIFY_MAX_N}")

    solver = "lp" if v.n <= LP_MAX_N else "huber"
    if solver == "lp":
        try:
            gamma, delta, loss, history = _best_iterate(v, cfg, _lp_sparsify)
        except _PivotBudgetExhausted:
            solver = "huber"
    if solver == "huber":
        gamma, delta, loss, history = _best_iterate(v, cfg, _smoothed_sparsify)

    if cfg.max_iters > 0:
        alland = all_and_decomposition(v)
        alland_loss = extract(v, alland).total_l1()
        if alland_loss < loss:
            gamma, delta, loss = alland.gamma, alland.delta, alland_loss
            history.append(loss)

    zeta = cfg.zeta_fraction * v.gap() if cfg.denoise else 0.0
    decomposition = Decomposition(gamma=gamma, delta=delta, zeta_bound=zeta,
                                  solver=solver)
    return decomposition, extract(v, decomposition), history


def salience_threshold(tables, fraction: float = DEFAULT_SALIENCE_FRACTION) -> float:
    """tau = fraction * mean over samples of |v(x_N) - v(x_empty)|."""
    gaps = [t.gap() for t in tables]
    if not gaps:
        raise ValueError("salience threshold needs at least one table")
    return fraction * float(np.mean(gaps))


def filter_salient(iset: InteractionSet, tau: float) -> InteractionSet:
    """Sparse view keeping effects with |effect| strictly greater than tau."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    i_and = np.where(np.abs(iset.i_and) > tau, iset.i_and, 0.0)
    i_or = np.where(np.abs(iset.i_or) > tau, iset.i_or, 0.0)
    return InteractionSet(n=iset.n, i_and=i_and, i_or=i_or, bias=iset.bias,
                          label=iset.label)


def salient_counts(iset: InteractionSet, tau: float) -> dict[str, dict[int, int]]:
    """Survivor counts per kind and order under the strict threshold."""
    orders = order_counts(iset.n)
    out: dict[str, dict[int, int]] = {}
    for kind, effects in (("and", iset.i_and), ("or", iset.i_or)):
        ks = orders[np.abs(effects) > tau]
        out[kind] = {int(k): int(c) for k, c in zip(*np.unique(ks, return_counts=True))}
    return out
