"""AND-OR interaction extraction and L1 sparsification.

The masked outputs are split as u_and[L] = 0.5*(v[L] - delta[L]) + gamma[L]
and u_or[L] = 0.5*(v[L] - delta[L]) - gamma[L], so u_and + u_or = v - delta
always holds. The empty-set entries are pinned (delta[0] = 0,
gamma[0] = 0.5*v[0]) so the all-masked output is attributed to the AND side
and the bias is identifiable. ``sparsify`` learns (gamma, delta) by
minimizing the total effect magnitude.

The default optimizer works in interaction-space coordinates: gamma is
parametrized as the subset sum of a free vector theta, which makes the AND
effects an affine *identity* in theta (the subset-sum and difference
transforms are inverses). In the raw gamma coordinates the objective's
curvature spans a factor exponential in n and first-order methods stall; in
theta coordinates a smoothed-L1 (Huber) continuation converges in a few
thousand quasi-Newton steps. In theta coordinates the subset sums also
cancel against the Mobius transforms (see ``_theta_effects``), so each
objective evaluation needs one superset sum and its adjoint, plus one batched
difference transform each way when denoising.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .lattice import (mobius_and, mobius_or, order_counts, table_size,
                      zeta_subsets, zeta_supersets)
from .models import ValueTable

SPARSIFY_MAX_N = 20
DEFAULT_SALIENCE_FRACTION = 0.02
DEFAULT_ZETA_FRACTION = 0.02


class NumericalError(RuntimeError):
    pass


@dataclass
class Decomposition:
    """Learnable AND/OR split (gamma) with box-bounded denoising (delta)."""

    gamma: np.ndarray
    delta: np.ndarray
    zeta_bound: float = 0.0

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
    """Optimizer settings; max_iters is the per-stage quasi-Newton cap."""

    max_iters: int = 2000
    convergence_eps: float = 1e-9
    zeta_fraction: float = DEFAULT_ZETA_FRACTION
    rng_seed: int = 0
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


def _smoothed_sparsify(v: ValueTable, cfg: SparsifyConfig
                       ) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Huber-smoothed L1 continuation in interaction-space coordinates.

    Variables are theta (gamma = zeta_subsets(theta), so the AND effects are
    base + theta exactly) and, when denoising, delta with box bounds. Each
    stage shrinks the Huber width; the best iterate by true L1 loss is kept,
    making the recorded history non-increasing.
    """
    values = v.values
    size = values.size
    zeta = cfg.zeta_fraction * v.gap() if cfg.denoise else 0.0
    scale = max(v.gap(), float(np.max(np.abs(values))), 1e-12)
    theta_pin = 0.5 * values[0]
    base = _objective_base(values)

    def realize(x):
        theta = np.empty(size)
        theta[0] = theta_pin
        theta[1:] = x[:size - 1]
        delta = np.zeros(size)
        if cfg.denoise:
            delta[1:] = x[size - 1:]
        return zeta_subsets(theta), delta

    # even-split start: gamma zero beyond the pin
    pin_only = np.zeros(size)
    pin_only[0] = theta_pin
    x = mobius_and(pin_only)[1:]
    if cfg.denoise:
        x = np.concatenate([x, np.zeros(size - 1)])
    bounds = None
    if cfg.denoise:
        bounds = [(None, None)] * (size - 1) + [(-zeta, zeta)] * (size - 1)

    best_gamma, best_delta = realize(x)
    best = _l1(x, base, cfg.denoise)
    if not np.isfinite(best):
        raise NumericalError("non-finite loss at initialization")
    history = [best]
    if cfg.max_iters <= 0:
        return best_gamma, best_delta, best, history

    for stage in cfg.smoothing_stages:
        res = minimize(_loss_grad, x, args=(stage * scale, base, cfg.denoise),
                       jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": cfg.max_iters, "ftol": 1e-14,
                                "gtol": 1e-12})
        x = res.x
        loss = _l1(x, base, cfg.denoise)
        if not np.isfinite(loss):
            raise NumericalError("non-finite loss during continuation")
        if loss < best - cfg.convergence_eps * max(1.0, abs(best)):
            best = loss
            best_gamma, best_delta = realize(x)
        history.append(best)
    return best_gamma, best_delta, best, history


def sparsify(v: ValueTable, cfg: SparsifyConfig | None = None
             ) -> tuple[Decomposition, InteractionSet, list[float]]:
    """Minimize sum |I_and| + |I_or| over (gamma, delta); see module docstring.

    Starts from the even split. With max_iters = 0 the even-split start and
    its loss are returned unchanged. Otherwise, if the all-AND closed form
    (always feasible) ends up below the final iterate, it is returned instead.
    """
    if cfg is None:
        cfg = SparsifyConfig()
    if v.n > SPARSIFY_MAX_N:
        raise ValueError(f"dense sparsify is capped at n <= {SPARSIFY_MAX_N}")

    gamma, delta, loss, history = _smoothed_sparsify(v, cfg)

    if cfg.max_iters > 0:
        alland = all_and_decomposition(v)
        alland_loss = extract(v, alland).total_l1()
        if alland_loss < loss:
            gamma, delta, loss = alland.gamma, alland.delta, alland_loss
            history.append(loss)

    zeta = cfg.zeta_fraction * v.gap() if cfg.denoise else 0.0
    decomposition = Decomposition(gamma=gamma, delta=delta, zeta_bound=zeta)
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
