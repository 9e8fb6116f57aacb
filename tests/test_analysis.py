import numpy as np
import pytest

from andor.analysis import (INFEASIBLE, _average_ranks, _spearman, axiom_suite,
                            compare_models, default_theta, kappa_fit,
                            sample_report, sparsity_diagnostics)
from andor.extraction import InteractionSet, all_and_decomposition, extract
from andor.lattice import order_counts, table_size
from andor.metrics import is_undefined
from andor.models import (ValueTable, inject_overfit, realize_table,
                          sample_sparse_game)


def iset(n, and_effects=None, label=""):
    i_and = np.zeros(1 << n)
    for m, c in (and_effects or {}).items():
        i_and[m] = c
    return InteractionSet(n=n, i_and=i_and, i_or=np.zeros(1 << n), bias=0.0,
                          label=label)


def test_sample_report_low_order_not_confusing():
    r = sample_report(iset(10, {0b0011: 2.0}), tau=0.1, theta=5.0)
    assert r.eta_avg == 2.0
    assert not r.confusing


def test_sample_report_all_zero_is_not_confusing():
    r = sample_report(iset(10), tau=0.1, theta=1.0)
    assert is_undefined(r.eta_avg)
    assert not r.confusing


def test_flag_monotone_in_theta():
    s = iset(10, {0b1111100000: 3.0})
    flags = [sample_report(s, 0.1, th).confusing for th in (2.0, 5.0, 6.0)]
    assert flags == sorted(flags, reverse=True)


def test_compare_models_identity():
    reports = [sample_report(iset(8, {0b0011: 2.0}, label=f"s{i}"), 0.1, 4.0)
               for i in range(4)]
    cmp = compare_models(reports, reports)
    assert cmp.rank_correlation == 1.0
    assert cmp.mean_abs_diagonal_gap == 0.0
    assert cmp.overlap == 1.0


def test_compare_models_anti_ranking():
    a, b = [], []
    for i in range(5):
        a.append(sample_report(iset(8, {(1 << (i + 1)) - 1: 2.0}, label=f"s{i}"),
                               0.1, 9.0))
        b.append(sample_report(iset(8, {(1 << (5 - i)) - 1: 2.0}, label=f"s{i}"),
                               0.1, 9.0))
    cmp = compare_models(a, b)
    assert cmp.rank_correlation == pytest.approx(-1.0)


def test_spearman_with_ties():
    ranks = _average_ranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0]))
    np.testing.assert_array_equal(ranks, [4.0, 1.0, 4.0, 2.0, 4.0])
    # ranks (1, 2.5, 2.5, 4) and (1, 3, 2, 4): r = 4.5 / sqrt(4.5 * 5)
    r = _spearman(np.array([1.0, 2.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0, 4.0]))
    assert r == pytest.approx(np.sqrt(0.9), rel=1e-15)
    # ranks (1.5, 1.5, 3.5, 3.5) and (1, 2.5, 2.5, 4): r = 3 / sqrt(4 * 4.5)
    r = _spearman(np.array([0.0, 0.0, 1.0, 1.0]), np.array([5.0, 6.0, 6.0, 7.0]))
    assert r == pytest.approx(np.sqrt(0.5), rel=1e-15)


def test_spearman_is_exactly_one_on_identical_and_reversed_rankings():
    rng = np.random.default_rng(5)
    for k in range(2, 60):
        xs = rng.integers(0, 7, size=k) * 0.37
        if np.all(xs == xs[0]):
            continue
        assert _spearman(xs, xs) == 1.0
        assert _spearman(xs, -xs) == -1.0


def test_compare_models_requires_common_labels():
    a = [sample_report(iset(8, {3: 1.0}, label="x"), 0.1, 4.0)]
    b = [sample_report(iset(8, {3: 1.0}, label="y"), 0.1, 4.0)]
    with pytest.raises(ValueError):
        compare_models(a, b)


def test_default_theta():
    assert default_theta(10) == 5.0


def _extracted(game):
    v = realize_table(game)
    return v, extract(v, all_and_decomposition(v))


def test_diagnostics_condition1_order_bound():
    for seed in range(5):
        game = sample_sparse_game(8, 8, {2: 0.5, 3: 0.5}, 4.0, rng_seed=seed,
                                  kinds=("and",))
        v, iset_ = _extracted(game)
        diag = sparsity_diagnostics(v, iset_, tau=0.05, max_order=3)
        assert diag.condition1_ok
        assert diag.max_salient_order <= 3


def test_diagnostics_linear_game():
    # v(x_S) = |S|: mean gain is exactly k, monotone, and p = 1 works
    n = 6
    values = order_counts(n).astype(np.float64)
    v = ValueTable(n=n, values=values)
    iset_ = extract(v, all_and_decomposition(v))
    diag = sparsity_diagnostics(v, iset_, tau=0.05, max_order=n)
    assert diag.condition2_ok
    assert diag.condition3_min_p == pytest.approx(1.0, abs=1e-5)


def test_diagnostics_detects_non_monotone():
    n = 5
    values = -order_counts(n).astype(np.float64)
    v = ValueTable(n=n, values=values)
    iset_ = extract(v, all_and_decomposition(v))
    diag = sparsity_diagnostics(v, iset_, tau=0.05, max_order=n)
    assert not diag.condition2_ok
    assert diag.condition2_violation == 2
    assert diag.condition3_min_p == INFEASIBLE


def test_kappa_fit_log_identity():
    assert kappa_fit(10, 1.0, 10) == pytest.approx(1.0)
    assert is_undefined(kappa_fit(0, 1.0, 10))


def test_inject_overfit_raises_eta():
    from andor.metrics import average_order, order_profile
    base = sample_sparse_game(10, 10, {1: 1.0}, 4.0, rng_seed=4)
    injected = inject_overfit(base, high_order_min=7, pair_count=10,
                              magnitude=5.0, rng_seed=4)
    tau = 0.02 * realize_table(base).gap()
    etas = []
    for game in (base, injected):
        v, iset_ = _extracted(game)
        etas.append(average_order(order_profile(iset_, tau)))
    assert etas[1] > etas[0]


@pytest.mark.parametrize("n", [4, 6])
def test_axiom_suite_passes(n):
    results = axiom_suite(n, trials=50, rng_seed=123)
    assert len(results) == 7
    for r in results:
        assert r.passed, f"{r.name} failed with max error {r.max_error}"
        assert r.counterexample is None


def test_axiom_suite_stores_counterexample(monkeypatch):
    # force a failure by breaking the tolerance
    import andor.analysis as analysis
    monkeypatch.setattr(analysis, "AXIOM_TOL", -1.0)
    results = axiom_suite(4, trials=3, rng_seed=0)
    assert any(not r.passed and r.counterexample is not None for r in results)


def test_axiom_suite_input_validation():
    with pytest.raises(ValueError):
        axiom_suite(9, trials=10, rng_seed=0)
    with pytest.raises(ValueError):
        axiom_suite(4, trials=0, rng_seed=0)
