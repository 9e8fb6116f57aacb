import numpy as np
import pytest

from andor.extraction import (Decomposition, SparsifyConfig, _best_iterate,
                              _loss_grad, _lp_matrix, _lp_sparsify,
                              _objective_base, _smoothed_sparsify,
                              _theta_effects, all_and_decomposition,
                              even_split_decomposition, extract, filter_salient,
                              salience_threshold, salient_counts, sparsify,
                              split_components)
from andor.lattice import (mobius_and, mobius_and_transpose, mobius_or,
                           zeta_subsets)
from andor.models import (ValueTable, interaction_function_table, realize_table,
                          sample_sparse_game)
from andor.oracle import brute_and, brute_or
from test_acceptance import recovery_game


@pytest.fixture
def random_table():
    rng = np.random.default_rng(7)
    return ValueTable(n=6, values=rng.normal(size=64))


@pytest.fixture
def both_paths(random_table):
    """The n=6 table (solved as an LP) and a dense n=10 one, whose LP exhausts
    its pivot budget, so the Huber continuation solves it."""
    rng = np.random.default_rng(8)
    return [random_table, ValueTable(n=10, values=rng.normal(size=1 << 10))]


def test_split_components_sum(random_table):
    d = even_split_decomposition(random_table)
    u_and, u_or = split_components(random_table, d)
    np.testing.assert_allclose(u_and + u_or, random_table.values - d.delta)


def test_all_and_decomposition_puts_everything_on_and(random_table):
    iset = extract(random_table, all_and_decomposition(random_table))
    assert not iset.i_or.any()
    assert iset.bias == pytest.approx(random_table.values[0])


def test_decomposition_validation(random_table):
    d = all_and_decomposition(random_table)
    d.delta = d.delta + 1.0  # leaves the zero box
    with pytest.raises(ValueError):
        d.validate(random_table)


def test_extract_pure_and_interaction():
    v = interaction_function_table(0b0101, 2.0, "and", 4)
    iset = extract(v, all_and_decomposition(v))
    expected = np.zeros(16)
    expected[0b0101] = 2.0
    np.testing.assert_allclose(iset.i_and, expected, atol=1e-12)


def test_interaction_set_rejects_nonzero_empty_slot():
    from andor.extraction import InteractionSet
    bad = np.zeros(8)
    bad[0] = 1.0
    with pytest.raises(ValueError):
        InteractionSet(n=3, i_and=bad, i_or=np.zeros(8), bias=0.0)


def test_sparsify_history_non_increasing(both_paths):
    for v in both_paths:
        _, _, hist = sparsify(v, SparsifyConfig(max_iters=50))
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_sparsify_zero_iters_returns_even_split(both_paths):
    for v in both_paths:
        d, iset, hist = sparsify(v, SparsifyConfig(max_iters=0))
        ref = even_split_decomposition(v)
        np.testing.assert_allclose(d.gamma, ref.gamma)
        assert len(hist) == 1


def test_sparsify_beats_all_and(random_table):
    d, iset, hist = sparsify(random_table, SparsifyConfig(max_iters=200))
    all_and = extract(random_table, all_and_decomposition(random_table))
    assert iset.total_l1() <= all_and.total_l1() + 1e-9


def test_sparsify_delta_stays_in_box(random_table):
    d, _, _ = sparsify(random_table, SparsifyConfig(max_iters=100))
    d.validate(random_table)


def test_sparsify_recovers_a_small_game():
    game = sample_sparse_game(6, 5, {2: 1.0}, 4.0, rng_seed=21,
                              magnitude_floor=3.0, antichain=True)
    v = realize_table(game)
    d, iset, _ = sparsify(v, SparsifyConfig(denoise=False))
    tau = 0.02 * v.gap()
    assert iset.support(tau) == game.support()


def _unpack(x, values, denoise):
    size = values.size
    theta = np.empty(size)
    theta[0] = 0.5 * values[0]
    theta[1:] = x[:size - 1]
    delta = np.zeros(size)
    if denoise:
        delta[1:] = x[size - 1:]
    return theta, delta


def _six_transform_loss_grad(x, mu, values, denoise):
    """The objective in (gamma, delta) form: six transforms per evaluation."""
    theta, delta = _unpack(x, values, denoise)
    gamma = zeta_subsets(theta)
    half = 0.5 * (values - delta)
    i_and = mobius_and(half + gamma)
    i_and[0] = 0.0
    i_or = mobius_or(half - gamma)
    i_or[0] = 0.0
    f = 0.0
    for e in (i_and, i_or):
        a = np.abs(e)
        f += float(np.where(a <= mu, a * a / (2 * mu), a - mu / 2).sum())
    p_and = np.clip(i_and / mu, -1.0, 1.0)
    p_or = np.clip(i_or / mu, -1.0, 1.0)
    g_u_and = mobius_and_transpose(p_and)
    g_u_or = -mobius_and(p_or[::-1])
    # adjoint of zeta_subsets: sums over supersets
    g_theta = zeta_subsets((g_u_and - g_u_or)[::-1])[::-1]
    if not denoise:
        return f, g_theta[1:]
    g_delta = -0.5 * (g_u_and + g_u_or)
    return f, np.concatenate([g_theta[1:], g_delta[1:]])


def _random_point(n, denoise, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=1 << n)
    x = rng.normal(size=(2 if denoise else 1) * ((1 << n) - 1))
    if denoise:
        x[(1 << n) - 1:] *= 0.05
    return values, x


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_loss_grad_matches_six_transform_reference(n, denoise):
    values, x = _random_point(n, denoise, seed=n)
    base = _objective_base(values)
    for mu in (1e-3, 0.1, 10.0):
        f, g = _loss_grad(x, mu, base, denoise)
        f_ref, g_ref = _six_transform_loss_grad(x, mu, values, denoise)
        assert f == pytest.approx(f_ref, rel=1e-12)
        np.testing.assert_allclose(g, g_ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(g_ref)))


@pytest.mark.parametrize("denoise", [False, True])
def test_loss_grad_finite_differences(denoise):
    values, x = _random_point(5, denoise, seed=3)
    base = _objective_base(values)
    mu, h = 50.0, 1e-6      # a wide Huber width keeps every effect quadratic
    _, g = _loss_grad(x, mu, base, denoise)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        fd = (_loss_grad(x + step, mu, base, denoise)[0]
              - _loss_grad(x - step, mu, base, denoise)[0]) / (2 * h)
        assert fd == pytest.approx(g[j], rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("denoise", [False, True])
def test_theta_effects_match_the_oracle(denoise):
    values, x = _random_point(6, denoise, seed=11)
    effects = _theta_effects(x, _objective_base(values), denoise)
    theta, delta = _unpack(x, values, denoise)
    gamma = zeta_subsets(theta)
    half = 0.5 * (values - delta)
    i_and, i_or = brute_and(half + gamma), brute_or(half - gamma)
    i_and[0] = i_or[0] = 0.0
    np.testing.assert_allclose(effects[0], i_and, atol=1e-10)
    np.testing.assert_allclose(effects[1], i_or, atol=1e-10)


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_lp_matrix_matches_theta_effects(n, denoise):
    """The LP's rows hold for the effects of any (theta, delta), and theta is
    recovered from them: this checks S, K and the recovery formula."""
    values, x = _random_point(n, denoise, seed=20 + n)
    base = _objective_base(values)
    p, q = _theta_effects(x, base, denoise)[:, 1:]
    a, b = base[:, 1:]
    m = a.size
    delta = np.zeros(m + 1)
    if denoise:
        delta[1:] = x[m:]
    matrix = _lp_matrix(n, denoise)
    z = np.concatenate([np.maximum(p, 0), np.maximum(-p, 0),
                        np.maximum(q, 0), np.maximum(-q, 0), delta[1:] if denoise else []])
    np.testing.assert_allclose(matrix @ z, matrix[:, :m] @ a - b, atol=1e-10)
    theta = p - a + 0.5 * mobius_and(delta)[1:]
    np.testing.assert_allclose(theta, x[:m], atol=1e-10)


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(4, 8))
def test_lp_reaches_at_most_the_huber_loss(n, denoise):
    rng = np.random.default_rng(30 + n)
    v = ValueTable(n=n, values=rng.normal(size=1 << n))
    cfg = SparsifyConfig(denoise=denoise)
    gamma, delta, loss, hist = _best_iterate(v, cfg, _lp_sparsify)
    huber_loss = _best_iterate(v, cfg, _smoothed_sparsify)[2]
    assert loss <= huber_loss * (1 + 1e-12)
    assert loss < hist[0]
    zeta = cfg.zeta_fraction * v.gap() if denoise else 0.0
    d = Decomposition(gamma=gamma, delta=delta, zeta_bound=zeta)
    d.validate(v)
    assert extract(v, d).total_l1() == pytest.approx(loss, rel=1e-12)


@pytest.mark.parametrize("denoise", [False, True])
def test_dense_n10_falls_back_to_huber_bit_identically(denoise):
    rng = np.random.default_rng(40)
    v = ValueTable(n=10, values=rng.normal(size=1 << 10))
    cfg = SparsifyConfig(max_iters=50, denoise=denoise)
    d, _, hist = sparsify(v, cfg)
    gamma, delta, _, huber_hist = _best_iterate(v, cfg, _smoothed_sparsify)
    assert d.solver == "huber"
    np.testing.assert_array_equal(d.gamma, gamma)
    np.testing.assert_array_equal(d.delta, delta)
    assert hist == huber_hist


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_4_games_solve_exactly_on_the_lp(seed):
    _, v, _ = recovery_game(seed)
    cfg = SparsifyConfig(denoise=False)
    d, iset, _ = sparsify(v, cfg)
    assert d.solver == "lp"
    assert iset.total_l1() <= _best_iterate(v, cfg, _smoothed_sparsify)[2] * (1 + 1e-12)


def test_sparsify_size_cap():
    v = ValueTable(n=21, values=np.zeros(1 << 21))
    with pytest.raises(ValueError):
        sparsify(v)


def test_salience_threshold_is_mean_gap_fraction():
    t1 = ValueTable(n=2, values=np.array([0.0, 1.0, 2.0, 10.0]))
    t2 = ValueTable(n=2, values=np.array([0.0, 1.0, 2.0, 20.0]))
    assert salience_threshold([t1, t2]) == pytest.approx(0.02 * 15.0)
    with pytest.raises(ValueError):
        salience_threshold([])


def test_filter_salient_strict_threshold():
    from andor.extraction import InteractionSet
    i_and = np.zeros(8)
    i_and[1] = 0.5
    i_and[2] = 0.5000001
    iset = InteractionSet(n=3, i_and=i_and, i_or=np.zeros(8), bias=0.0)
    kept = filter_salient(iset, 0.5)
    assert kept.i_and[1] == 0.0          # equal to tau: dropped
    assert kept.i_and[2] != 0.0


def test_salient_counts_by_order():
    from andor.extraction import InteractionSet
    i_and = np.zeros(8)
    i_and[0b011] = 2.0
    i_or = np.zeros(8)
    i_or[0b001] = -1.0
    iset = InteractionSet(n=3, i_and=i_and, i_or=i_or, bias=0.0)
    counts = salient_counts(iset, 0.5)
    assert counts == {"and": {2: 1}, "or": {1: 1}}
