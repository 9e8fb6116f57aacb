"""Sample- and model-level analyses built on the extraction metrics.

Covers confusing-sample flagging (high average interaction order), pairwise
model comparison on shared samples, sparsity diagnostics of a value table,
and a randomized verification suite for the seven algebraic axioms of the
AND effect transform.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .extraction import InteractionSet, all_and_decomposition, extract, filter_salient
from .lattice import mobius_and, order_counts, permute_variables, table_size
from .metrics import UNDEFINED, OrderProfile, average_order, is_undefined, order_profile
from .models import ValueTable, interaction_function_table
from .oracle import conditioned_and

AXIOM_TOL = 1e-8
AXIOM_MAX_N = 8
# Condition-3 exponent search range and bisection tolerance.
P_MAX = 64.0
P_TOL = 1e-6
INFEASIBLE = float("inf")


def default_theta(n: int) -> float:
    """Confusing-sample threshold on eta_avg; half the order range."""
    return n / 2.0


@dataclass
class SampleReport:
    """Per-sample complexity summary with the confusing flag."""

    label: str
    eta_avg: float
    salient_count: int
    total_l1: float
    profile: OrderProfile
    confusing: bool


def sample_report(iset: InteractionSet, tau: float, theta: float) -> SampleReport:
    profile = order_profile(iset, tau)
    eta = average_order(profile)
    return SampleReport(
        label=iset.label,
        eta_avg=eta,
        salient_count=profile.salient_count,
        total_l1=profile.total_strength(),
        profile=profile,
        confusing=(not is_undefined(eta)) and eta >= theta,
    )


@dataclass
class PairComparison:
    """Agreement statistics between two models' reports on shared samples."""

    points: list[tuple[str, float, float]]
    rank_correlation: float
    mean_abs_diagonal_gap: float
    overlap: float


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied entries share the mean of their ranks."""
    order = np.argsort(x, kind="mergesort")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _spearman(xs: np.ndarray, ys: np.ndarray) -> float:
    """Spearman rank correlation: Pearson's r of the average-tie ranks.

    The centred ranks are half-integers, so the three sums are exact and
    identical or reversed rankings give exactly +1 or -1.
    """
    dx = _average_ranks(xs)
    dy = _average_ranks(ys)
    dx -= dx.mean()
    dy -= dy.mean()
    return float(dx @ dy / np.sqrt((dx @ dx) * (dy @ dy)))


def compare_models(reports_a: list[SampleReport],
                   reports_b: list[SampleReport]) -> PairComparison:
    """Pair reports by label; Spearman rank correlation and diagonal gap of
    eta, plus Jaccard overlap of the two confusing-flag sets (1 if both empty).
    """
    by_a = {r.label: r for r in reports_a}
    by_b = {r.label: r for r in reports_b}
    common = sorted(set(by_a) & set(by_b))
    if not common:
        raise ValueError("report label sets do not overlap")

    points = []
    for label in common:
        ea, eb = by_a[label].eta_avg, by_b[label].eta_avg
        if is_undefined(ea) or is_undefined(eb):
            continue
        points.append((label, float(ea), float(eb)))
    if points:
        xs = np.array([p[1] for p in points])
        ys = np.array([p[2] for p in points])
        if np.all(xs == xs[0]) or np.all(ys == ys[0]):
            # Spearman is undefined on a constant ranking; identical constant
            # vectors count as perfect agreement.
            corr = 1.0 if np.array_equal(xs, ys) else UNDEFINED
        else:
            corr = _spearman(xs, ys)
        gap = float(np.mean(np.abs(xs - ys)))
    else:
        corr, gap = UNDEFINED, UNDEFINED

    flags_a = {label for label in common if by_a[label].confusing}
    flags_b = {label for label in common if by_b[label].confusing}
    union = flags_a | flags_b
    overlap = 1.0 if not union else len(flags_a & flags_b) / len(union)
    return PairComparison(points=points, rank_correlation=corr,
                          mean_abs_diagonal_gap=gap, overlap=overlap)


@dataclass
class SparsityDiagnostic:
    """Checks whether a table's interactions behave like a sparse encoder.

    condition1: no salient effect above the stated max order; condition2:
    mean masked output rises with mask order; condition3: smallest exponent p
    bounding the rise polynomially (INFEASIBLE when no p in (0, P_MAX] works);
    kappa_fit: log(salient_count * tau) / log(n).
    """

    condition1_ok: bool
    max_salient_order: int
    condition2_ok: bool
    condition2_violation: int | None
    condition3_min_p: float
    salient_count: int
    kappa_fit: float


def _mean_gain_by_order(v: ValueTable) -> np.ndarray:
    """u_bar[k-1] = mean over |S| = k of v(x_S) - v(x_empty), k = 1..n."""
    orders = order_counts(v.n)
    gains = v.values - v.values[0]
    out = np.empty(v.n)
    for k in range(1, v.n + 1):
        out[k - 1] = gains[orders == k].mean()
    return out


def _condition3_min_p(u_bar: np.ndarray) -> float:
    """Smallest p > 0 with u_bar[k'-1] >= (k'/k)^p * u_bar[k-1] for k' <= k."""
    n = len(u_bar)

    def holds(p: float) -> bool:
        for k in range(1, n + 1):
            for kp in range(1, k + 1):
                if u_bar[kp - 1] < (kp / k) ** p * u_bar[k - 1] - 1e-12:
                    return False
        return True

    if not holds(P_MAX):
        return INFEASIBLE
    lo, hi = 0.0, P_MAX
    while hi - lo > P_TOL:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def kappa_fit(salient_count: int, tau: float, n: int) -> float:
    """Exponent kappa with salient_count * tau = n^kappa."""
    if salient_count <= 0 or tau <= 0:
        return UNDEFINED
    return math.log(salient_count * tau) / math.log(n)


def sparsity_diagnostics(v: ValueTable, iset: InteractionSet, tau: float,
                         max_order: int) -> SparsityDiagnostic:
    if max_order > v.n:
        raise ValueError(f"max_order {max_order} exceeds n={v.n}")
    orders = order_counts(v.n)
    salient = (np.abs(iset.i_and) > tau) | (np.abs(iset.i_or) > tau)
    salient[0] = False
    count = int((np.abs(iset.i_and) > tau)[1:].sum()
                + (np.abs(iset.i_or) > tau)[1:].sum())
    max_sal = int(orders[salient].max()) if salient.any() else 0

    u_bar = _mean_gain_by_order(v)
    violation = None
    for k in range(1, v.n):
        if u_bar[k] < u_bar[k - 1] - 1e-12:
            violation = k + 1
            break

    return SparsityDiagnostic(
        condition1_ok=max_sal <= max_order,
        max_salient_order=max_sal,
        condition2_ok=violation is None,
        condition2_violation=violation,
        condition3_min_p=_condition3_min_p(u_bar),
        salient_count=count,
        kappa_fit=kappa_fit(count, tau, v.n),
    )


@dataclass
class AxiomResult:
    name: str
    passed: bool
    trials: int
    max_error: float
    counterexample: np.ndarray | None = None


def _and_effects(values: np.ndarray) -> np.ndarray:
    return mobius_and(values)


def _random_table(rng, n: int) -> np.ndarray:
    return rng.normal(0.0, 1.0, size=table_size(n))


def _check(results: list, name: str, errs: list[float], tables: list[np.ndarray]):
    worst = int(np.argmax(errs))
    passed = errs[worst] <= AXIOM_TOL
    results.append(AxiomResult(
        name=name, passed=passed, trials=len(errs), max_error=float(errs[worst]),
        counterexample=None if passed else tables[worst]))


def axiom_suite(n: int, trials: int, rng_seed: int) -> list[AxiomResult]:
    """Randomized verification of the seven AND-effect axioms at tolerance 1e-8.

    efficiency: effects over all T sum to v(x_N).
    linearity:  effects of v + w equal effects of v plus effects of w.
    dummy:      a variable acting additively has no joint effects.
    symmetry:   interchangeable variables receive equal effects.
    anonymity:  relabeling variables relabels effects accordingly.
    recursive:  effect of T + {i} = (effect of T with i present) - (effect of T).
    distribution: the pure AND indicator table yields a single effect c at T.
    """
    if n > AXIOM_MAX_N:
        raise ValueError(f"axiom suite is capped at n <= {AXIOM_MAX_N}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    size = table_size(n)
    full = size - 1
    results: list[AxiomResult] = []

    # efficiency
    errs, tabs = [], []
    for _ in range(trials):
        v = _random_table(rng, n)
        errs.append(abs(_and_effects(v).sum() - v[full]))
        tabs.append(v)
    _check(results, "efficiency", errs, tabs)

    # linearity
    errs, tabs = [], []
    for _ in range(trials):
        v, w = _random_table(rng, n), _random_table(rng, n)
        err = np.max(np.abs(_and_effects(v + w) - _and_effects(v) - _and_effects(w)))
        errs.append(float(err))
        tabs.append(v)
    _check(results, "linearity", errs, tabs)

    # dummy: v(x_{S+i}) = v(x_S) + v(x_i) for a planted additive variable i
    errs, tabs = [], []
    for _ in range(trials):
        i = int(rng.integers(n))
        bit = 1 << i
        v = _random_table(rng, n)
        idx = np.arange(size)
        base = v[idx & ~bit]
        v = np.where(idx & bit, base + v[bit] - v[0], base)
        effects = _and_effects(v)
        joint = effects[(idx & bit).astype(bool) & (idx != bit)]
        errs.append(float(np.max(np.abs(joint))))
        tabs.append(v)
    _check(results, "dummy", errs, tabs)

    # symmetry: v invariant under swapping i and j => effects invariant too
    errs, tabs = [], []
    for _ in range(trials):
        i, j = rng.choice(n, size=2, replace=False)
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        v = _random_table(rng, n)
        v = 0.5 * (v + permute_variables(v, perm))
        effects = _and_effects(v)
        errs.append(float(np.max(np.abs(effects - permute_variables(effects, perm)))))
        tabs.append(v)
    _check(results, "symmetry", errs, tabs)

    # anonymity: effects of a relabeled table are the relabeled effects
    errs, tabs = [], []
    for _ in range(trials):
        perm = rng.permutation(n)
        v = _random_table(rng, n)
        lhs = _and_effects(permute_variables(v, perm))
        rhs = permute_variables(_and_effects(v), perm)
        errs.append(float(np.max(np.abs(lhs - rhs))))
        tabs.append(v)
    _check(results, "anonymity", errs, tabs)

    # recursive: I[T + i] = (I[T] with i conditioned present) - I[T]
    errs, tabs = [], []
    for _ in range(trials):
        v = _random_table(rng, n)
        table = ValueTable(n=n, values=v)
        effects = _and_effects(v)
        worst = 0.0
        for _ in range(8):
            i = int(rng.integers(n))
            bit = 1 << i
            t = int(rng.integers(size)) & ~bit
            lhs = effects[t | bit]
            rhs = conditioned_and(table, t, i + 1) - effects[t]
            worst = max(worst, abs(lhs - rhs))
        errs.append(worst)
        tabs.append(v)
    _check(results, "recursive", errs, tabs)

    # interaction distribution: the pure AND indicator has one effect c at T
    errs, tabs = [], []
    for _ in range(trials):
        t = int(rng.integers(1, size))
        c = float(rng.uniform(-5.0, 5.0))
        v = interaction_function_table(t, c, "and", n).values
        effects = _and_effects(v)
        expected = np.zeros(size)
        expected[t] = c
        errs.append(float(np.max(np.abs(effects - expected))))
        tabs.append(v)
    _check(results, "interaction_distribution", errs, tabs)

    return results
