"""Sample- and model-level analyses built on the extraction metrics.

Covers confusing-sample flagging (high average interaction order), pairwise
model comparison on shared samples, sparsity diagnostics of a value table,
and a randomized verification suite for the seven algebraic axioms of the
AND effect transform.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .extraction import InteractionSet
from .lattice import mobius_and, order_counts, permute_variables, table_size
from .metrics import UNDEFINED, average_order, is_undefined, order_profile
from .models import ValueTable, interaction_function_table
from .oracle import conditioned_and

AXIOM_TOL = 1e-8
# The dummy and symmetry axioms need two variables.
AXIOM_MIN_N = 2
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
    confusing: bool


def sample_report(iset: InteractionSet, tau: float, theta: float) -> SampleReport:
    if math.isnan(theta):
        raise ValueError("theta must not be NaN")
    profile = order_profile(iset, tau)
    eta = average_order(profile)
    return SampleReport(
        label=iset.label,
        eta_avg=eta,
        salient_count=profile.salient_count,
        total_l1=profile.total_strength(),
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
    A label repeated on either side pairs ambiguously and is a ValueError.
    """
    for side, reports in (("a", reports_a), ("b", reports_b)):
        repeated = sorted(label for label, count in
                          Counter(r.label for r in reports).items() if count > 1)
        if repeated:
            raise ValueError(f"the reports of model {side} repeat the labels {repeated}")
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
    """Exponent kappa with salient_count * tau = n^kappa; UNDEFINED for n < 2."""
    if salient_count <= 0 or tau <= 0 or n < 2:
        return UNDEFINED
    return math.log(salient_count * tau) / math.log(n)


def sparsity_diagnostics(v: ValueTable, iset: InteractionSet, tau: float,
                         max_order: int) -> SparsityDiagnostic:
    if not 0 <= max_order <= v.n:
        raise ValueError(f"max_order {max_order} is outside 0..n={v.n}")
    salient = iset.salient(tau)
    count = int(salient.sum())
    salient_orders = order_counts(v.n)[salient.any(axis=0)]
    max_sal = int(salient_orders.max()) if salient_orders.size else 0

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


def _random_table(rng, n: int) -> np.ndarray:
    return rng.normal(0.0, 1.0, size=table_size(n))


# Each trial draws from rng and returns (error, the table it checked).

def _efficiency(rng, n: int):
    """Effects over all T sum to v(x_N)."""
    v = _random_table(rng, n)
    return abs(mobius_and(v).sum() - v[-1]), v


def _linearity(rng, n: int):
    """Effects of v + w equal effects of v plus effects of w."""
    v, w = _random_table(rng, n), _random_table(rng, n)
    return float(np.max(np.abs(mobius_and(v + w) - mobius_and(v) - mobius_and(w)))), v


def _dummy(rng, n: int):
    """v(x_{S+i}) = v(x_S) + v(x_i) for a planted additive variable i: it has
    no joint effects."""
    bit = 1 << int(rng.integers(n))
    v = _random_table(rng, n)
    idx = np.arange(v.size)
    base = v[idx & ~bit]
    v = np.where(idx & bit, base + v[bit] - v[0], base)
    joint = mobius_and(v)[(idx & bit).astype(bool) & (idx != bit)]
    return float(np.max(np.abs(joint))), v


def _symmetry(rng, n: int):
    """v invariant under swapping i and j gives effects invariant too."""
    i, j = rng.choice(n, size=2, replace=False)
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    v = _random_table(rng, n)
    v = 0.5 * (v + permute_variables(v, perm))
    effects = mobius_and(v)
    return float(np.max(np.abs(effects - permute_variables(effects, perm)))), v


def _anonymity(rng, n: int):
    """Effects of a relabeled table are the relabeled effects."""
    perm = rng.permutation(n)
    v = _random_table(rng, n)
    lhs = mobius_and(permute_variables(v, perm))
    return float(np.max(np.abs(lhs - permute_variables(mobius_and(v), perm)))), v


def _recursive(rng, n: int):
    """I[T + i] = (I[T] with i conditioned present) - I[T], at 8 random (T, i)."""
    v = _random_table(rng, n)
    table = ValueTable(n=n, values=v)
    effects = mobius_and(v)
    worst = 0.0
    for _ in range(8):
        i = int(rng.integers(n))
        bit = 1 << i
        t = int(rng.integers(v.size)) & ~bit
        rhs = conditioned_and(table, t, i + 1) - effects[t]
        worst = max(worst, abs(effects[t | bit] - rhs))
    return worst, v


def _interaction_distribution(rng, n: int):
    """The pure AND indicator table yields a single effect c at T."""
    size = table_size(n)
    t = int(rng.integers(1, size))
    c = float(rng.uniform(-5.0, 5.0))
    v = interaction_function_table(t, c, "and", n).values
    expected = np.zeros(size)
    expected[t] = c
    return float(np.max(np.abs(mobius_and(v) - expected))), v


AXIOMS = (("efficiency", _efficiency), ("linearity", _linearity),
          ("dummy", _dummy), ("symmetry", _symmetry), ("anonymity", _anonymity),
          ("recursive", _recursive),
          ("interaction_distribution", _interaction_distribution))


def axiom_suite(n: int, trials: int, rng_seed: int) -> list[AxiomResult]:
    """Randomized verification of the seven AND-effect axioms of AXIOMS at
    tolerance AXIOM_TOL; the axioms run in order, each for all its trials,
    on one generator seeded with rng_seed."""
    if not AXIOM_MIN_N <= n <= AXIOM_MAX_N:
        raise ValueError(f"axiom suite needs {AXIOM_MIN_N} <= n <= {AXIOM_MAX_N}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    results = []
    for name, trial in AXIOMS:
        errs, tables = zip(*(trial(rng, n) for _ in range(trials)))
        worst = int(np.argmax(errs))
        passed = errs[worst] <= AXIOM_TOL
        results.append(AxiomResult(
            name=name, passed=passed, trials=trials, max_error=float(errs[worst]),
            counterexample=None if passed else tables[worst]))
    return results
