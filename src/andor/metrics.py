"""Complexity and generalization metrics over extracted interaction sets.

Effects are read as the (2, 2**n) AND/OR rows of an InteractionSet, and only
the salient ones (``InteractionSet.salient``) count.
An order profile sums positive and negative salient strengths per interaction
order k; its strength-weighted mean is the average order eta_avg used to score
sample complexity. Populations of samples are compared by the Jaccard
similarity of their mean rows, each split into max(m, 0) and max(-m, 0) mass,
globally and per order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .extraction import InteractionSet, filter_salient
from .lattice import order_counts

# Marker for quantities whose defining ratio is 0/0 (all-zero profile or
# distributions); callers must test with is_undefined, not equality.
UNDEFINED = float("nan")


def is_undefined(x: float) -> bool:
    return math.isnan(x)


@dataclass
class OrderProfile:
    """Per-order strength sums; index k-1 holds order k, k = 1..n."""

    n: int
    j_pos: np.ndarray
    j_neg: np.ndarray
    salient_count: int = 0

    def __post_init__(self):
        self.j_pos = np.asarray(self.j_pos, dtype=np.float64)
        self.j_neg = np.asarray(self.j_neg, dtype=np.float64)
        if self.j_pos.shape != (self.n,) or self.j_neg.shape != (self.n,):
            raise ValueError("profiles must have one entry per order 1..n")
        if np.any(self.j_pos < 0) or np.any(self.j_neg < 0):
            raise ValueError("order strengths are sums of magnitudes, >= 0")
        if not (np.isfinite(self.j_pos).all() and np.isfinite(self.j_neg).all()):
            raise ValueError("order strengths overflow float64")

    def total_strength(self) -> float:
        return float(self.j_pos.sum() + self.j_neg.sum())

    def offset_mass(self) -> np.ndarray:
        """Per-order min(j_pos, j_neg): strength that mutually cancels."""
        return np.minimum(self.j_pos, self.j_neg)


def order_profile(iset: InteractionSet, tau: float = 0.0) -> OrderProfile:
    """Sum positive effects into j_pos[k] and |negative| into j_neg[k].

    Only the effects ``iset.salient(tau)`` marks are counted, so the bias
    (the empty set) never is: it is not an interaction.
    """
    keep = iset.salient(tau)
    orders = np.tile(order_counts(iset.n), 2)[keep.ravel()]
    vals = iset.effects[keep]
    j_pos = np.bincount(orders, weights=np.maximum(vals, 0.0), minlength=iset.n + 1)
    j_neg = np.bincount(orders, weights=np.maximum(-vals, 0.0), minlength=iset.n + 1)
    return OrderProfile(n=iset.n, j_pos=j_pos[1:], j_neg=j_neg[1:],
                        salient_count=int(keep.sum()))


def average_order(p: OrderProfile) -> float:
    """Strength-weighted mean order; UNDEFINED on an all-zero profile.
    Raises ValueError where the total strength or its order-weighted sum
    overflows float64."""
    weights = p.j_pos + p.j_neg
    total = weights.sum()
    weighted = (np.arange(1, p.n + 1, dtype=np.float64) * weights).sum()
    if not (np.isfinite(total) and np.isfinite(weighted)):
        raise ValueError("the order strengths' sum overflows float64")
    if total <= 0.0:
        return UNDEFINED
    return float(weighted / total)


def mean_distribution(sets: list[InteractionSet]) -> np.ndarray:
    """Elementwise mean over samples of the (2, 2**n) AND/OR effect rows."""
    if not sets:
        raise ValueError("mean_distribution needs at least one interaction set")
    n = sets[0].n
    if any(s.n != n for s in sets):
        raise ValueError("all interaction sets must share n")
    return np.mean([s.effects for s in sets], axis=0)


def _min_max(m1: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise min and max of the masses max(m, 0), max(-m, 0) of two mean
    distributions, flattened in (sign, kind, mask) order."""
    a = np.stack([np.maximum(m1, 0.0), np.maximum(-m1, 0.0)])
    b = np.stack([np.maximum(m2, 0.0), np.maximum(-m2, 0.0)])
    return np.minimum(a, b).ravel(), np.maximum(a, b).ravel()


def _ratio(lo: float, hi: float) -> float:
    if not math.isfinite(hi):
        # the effects are finite, so their summed mass overflowed float64
        raise ValueError("the effect mass overflows float64")
    return float(lo / hi) if hi > 0.0 else UNDEFINED


def _sum_ratio(lo: np.ndarray, hi: np.ndarray) -> float:
    """sum(lo) / sum(hi), each summed left to right as np.bincount sums."""
    return _ratio(np.cumsum(lo)[-1], np.cumsum(hi)[-1])


def jaccard(m1: np.ndarray, m2: np.ndarray) -> float:
    """||min(a, b)||_1 / ||max(a, b)||_1, where a and b are the mean rows m1
    and m2 split into positive and negative mass; UNDEFINED when both are
    zero."""
    if m1.shape != m2.shape:
        raise ValueError("distributions must share n")
    return _sum_ratio(*_min_max(m1, m2))


@dataclass
class SimilarityReport:
    """Global and per-order Jaccard similarities; index k-1 holds order k."""

    n: int
    sim_global: float
    sim_per_order: np.ndarray

    def defined_orders(self) -> list[int]:
        return [k for k in range(1, self.n + 1)
                if not is_undefined(self.sim_per_order[k - 1])]


def per_order_jaccard(sets_a: list[InteractionSet], sets_b: list[InteractionSet],
                      tau: float = 0.0) -> SimilarityReport:
    """Jaccard of the two mean distributions, globally and per order |T| = k.

    Each sample goes through ``filter_salient`` before averaging, so the
    distributions carry exactly the slots that survive in either collection.
    A collection passed as both arguments is averaged once. Raises
    ValueError where a summed max-mass overflows float64.
    """
    da = mean_distribution([filter_salient(s, tau) for s in sets_a])
    db = da if sets_b is sets_a else \
        mean_distribution([filter_salient(s, tau) for s in sets_b])
    if da.shape != db.shape:
        raise ValueError("the two collections must share n")
    n = sets_a[0].n
    lo, hi = _min_max(da, db)
    orders = np.tile(order_counts(n), 4)
    lo_k = np.bincount(orders, weights=lo, minlength=n + 1)
    hi_k = np.bincount(orders, weights=hi, minlength=n + 1)
    sims = np.array([_ratio(lo_k[k], hi_k[k]) for k in range(1, n + 1)])
    return SimilarityReport(n=n, sim_global=_sum_ratio(lo, hi), sim_per_order=sims)
