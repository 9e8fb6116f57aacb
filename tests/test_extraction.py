import numpy as np
import pytest

from andor import extraction
from andor.extraction import (ZETA_FRACTION, NumericalError, _highs_ok, _loss_grad,
                              _lp_matrix, _lp_model, _lp_solve, _lp_sparsify,
                              _objective_base, _theta_effects, all_and_decomposition,
                              even_split_decomposition, extract, filter_salient,
                              salience_threshold, sparsify, split_components)
from andor.lattice import mobius_and, mobius_or, zeta_subsets
from andor.models import (MaskingScheme, TinyNet, ValueTable, interaction_function_table,
                          net_value_table, realize_table,
                          sample_sparse_game)
from andor.oracle import brute_and, brute_or, reconstruct, verify_matching
from test_acceptance import recovery_game
from test_lattice import mobius_and_transpose


def lp_vertex(v, denoise):
    """(x, support) of v's LP vertex, or None when its pivot budget runs out:
    x as _lp_sparsify packs it, support True where the vertex's own effect
    p = p+ - p- (AND row) or q = q+ - q- (OR row) is nonzero."""
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    vertex = _lp_sparsify(_objective_base(v.values), zeta, denoise)
    if vertex is None:
        return None
    support = np.zeros((2, v.values.size), dtype=bool)
    support[:, 1:] = vertex_effects(v, denoise)[0] != 0.0
    return vertex[0], support


def vertex_effects(v, denoise):
    """Rows p = p+ - p- and q = q+ - q- of the uncapped LP vertex's columns,
    over the nonempty subsets, and its delta columns."""
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    x = _lp_solve(_objective_base(v.values), zeta, denoise).x
    m = v.values.size - 1
    p_q = x[:4 * m].reshape(2, 2, m)
    return p_q[:, 0] - p_q[:, 1], x[4 * m:]


def huber_sparsify(monkeypatch, v, denoise):
    """sparsify on the Huber path, as it runs for tables above LP_MAX_N."""
    with monkeypatch.context() as patch:
        patch.setattr(extraction, "LP_MAX_N", v.n - 1)
        result = sparsify(v, denoise)
    assert result[0].solver == "huber"
    return result


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
        InteractionSet(n=3, effects=np.stack([bad, np.zeros(8)]), bias=0.0)


@pytest.mark.parametrize("effects", [np.zeros(8), np.zeros((2, 4)), np.zeros((3, 8)),
                                     np.zeros((8, 2))])
def test_interaction_set_wants_two_rows_of_2_to_the_n(effects):
    from andor.extraction import InteractionSet
    with pytest.raises(ValueError, match="2, 2"):
        InteractionSet(n=3, effects=effects, bias=0.0)


@pytest.mark.parametrize("slot, value, bias", [
    ((0, 1), np.nan, 0.0), ((1, 5), np.inf, 0.0), ((0, 7), -np.inf, 0.0),
    ((0, 1), 0.0, np.nan), ((0, 1), 0.0, np.inf)])
def test_interaction_set_rejects_non_finite(slot, value, bias):
    from andor.extraction import InteractionSet
    effects = np.zeros((2, 8))
    effects[slot] = value
    with pytest.raises(ValueError, match="finite"):
        InteractionSet(n=3, effects=effects, bias=bias)


def test_interaction_set_salient():
    from andor.extraction import InteractionSet
    effects = np.zeros((2, 8))
    effects[0, 1], effects[0, 2], effects[1, 3], effects[1, 6] = 0.5, -0.5000001, 0.7, -0.5
    iset = InteractionSet(n=3, effects=effects, bias=2.0)
    salient = iset.salient(0.5)
    assert salient.shape == (2, 8)
    # strict at tau, on both signs and both rows
    assert set(zip(*np.nonzero(salient))) == {(0, 2), (1, 3)}
    assert not iset.salient(0.0)[:, 0].any()     # the empty set is never salient
    assert iset.salient(0.0).sum() == 4
    assert iset.support(0.5) == {("and", 2), ("or", 3)}
    for tau in (-1e-12, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            iset.salient(tau)


def test_sparsify_history_non_increasing(both_paths, huber_max_iters):
    huber_max_iters(50)
    for v in both_paths:
        _, _, hist = sparsify(v)
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_sparsify_beats_all_and(random_table):
    d, iset, hist = sparsify(random_table)
    all_and = extract(random_table, all_and_decomposition(random_table))
    assert iset.total_l1() <= all_and.total_l1() + 1e-9


def test_sparsify_delta_stays_in_box(random_table):
    d, _, _ = sparsify(random_table)
    d.validate(random_table)


def test_sparsify_recovers_a_small_game():
    game = sample_sparse_game(6, 5, {2: 1.0}, 4.0, rng_seed=21,
                              magnitude_floor=3.0, antichain=True)
    v = realize_table(game)
    d, iset, _ = sparsify(v, denoise=False)
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
    np.testing.assert_allclose(matrix @ z, matrix[:, :m] @ a + matrix[:, 2 * m:3 * m] @ b,
                               atol=1e-10)
    theta = p - a + 0.5 * mobius_and(delta)[1:]
    np.testing.assert_allclose(theta, x[:m], atol=1e-10)


def plain_lp_matrix(n, denoise):
    """[S, -S, -I, I] (then K when denoising) over the nonempty subsets: the
    L1 LP's rows before _lp_matrix's row transform."""
    import scipy.sparse as sp
    s = k = sp.csr_array(np.ones((1, 1)))
    for _ in range(n):
        s = sp.kron(s, sp.csr_array([[1.0, 1.0], [0.0, -1.0]]), format="csr")
        k = sp.kron(k, sp.csr_array([[0.0, 1.0], [1.0, -1.0]]), format="csr")
    s = s[1:, 1:]
    eye = sp.eye_array(s.shape[0], format="csr")
    return sp.hstack([s, -s, -eye, eye] + ([k[1:, 1:]] if denoise else []), format="csc")


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_lp_matrix_is_the_plain_rows_transformed(n, denoise):
    """The q- block of _lp_matrix is the row transform R', its own inverse:
    R' times the matrix gives the plain rows entry for entry."""
    m = (1 << n) - 1
    matrix = _lp_matrix(n, denoise)
    r = matrix[:, 3 * m:4 * m]
    np.testing.assert_array_equal((r @ r).toarray(), np.eye(m))
    np.testing.assert_array_equal((r @ matrix).toarray(),
                                  plain_lp_matrix(n, denoise).toarray())


def test_lp_matrix_nonzeros_at_n10():
    assert (plain_lp_matrix(10, False).nnz, plain_lp_matrix(10, True).nnz) == \
        (118096, 177143)
    assert (_lp_matrix(10, False).nnz, _lp_matrix(10, True).nnz) == (30976, 89992)


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(3, 9))
def test_row_transform_keeps_the_minimum(n, denoise):
    """_lp_solve's vertex solves the plain rows and has the unit L1 of
    linprog's vertex on them, with the same costs."""
    v = ValueTable(n=n, values=np.random.default_rng(80 + n).normal(size=1 << n))
    base = _objective_base(v.values)
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    m = v.values.size - 1
    plain = plain_lp_matrix(n, denoise)
    res = _lp_solve(base, zeta, denoise)
    ref = linprog_reference(base, zeta, denoise, matrix=plain)
    assert res.status == ref.status == 0
    np.testing.assert_allclose(plain @ res.x, plain @ ref.x, atol=1e-9)
    assert np.abs(res.x[:4 * m]).sum() == pytest.approx(np.abs(ref.x[:4 * m]).sum(),
                                                        rel=1e-12)


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(4, 8))
def test_lp_reaches_at_most_the_huber_loss(monkeypatch, n, denoise):
    rng = np.random.default_rng(30 + n)
    v = ValueTable(n=n, values=rng.normal(size=1 << n))
    d, _, hist = sparsify(v, denoise)
    loss = hist[-1]
    huber_loss = huber_sparsify(monkeypatch, v, denoise)[2][-1]
    assert d.solver == "lp"
    assert loss <= huber_loss * (1 + 1e-12)
    assert loss < hist[0]
    d.validate(v)
    assert extract(v, d).total_l1() == pytest.approx(loss, rel=1e-12)


@pytest.mark.parametrize("denoise", [False, True])
def test_dense_n10_falls_back_to_huber_bit_identically(monkeypatch, huber_max_iters,
                                                       denoise):
    huber_max_iters(50)
    rng = np.random.default_rng(40)
    v = ValueTable(n=10, values=rng.normal(size=1 << 10))
    assert lp_vertex(v, denoise) is None        # the pivot budget runs out
    d, iset, hist = sparsify(v, denoise)
    huber_d, _, huber_hist = huber_sparsify(monkeypatch, v, denoise)
    assert d.solver == "huber"
    np.testing.assert_array_equal(d.gamma, huber_d.gamma)
    np.testing.assert_array_equal(d.delta, huber_d.delta)
    assert hist == huber_hist
    # the Huber effects are extract's, unmasked
    ref = extract(v, d)
    np.testing.assert_array_equal(iset.i_and, ref.i_and)
    np.testing.assert_array_equal(iset.i_or, ref.i_or)


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(4, 9))
def test_lp_writes_the_vertex_effects(n, denoise):
    """The written effects are the vertex's own p and q, bit for bit, with
    the empty-set slots 0; recomputing them through the decomposition
    agrees up to rounding."""
    rng = np.random.default_rng(60 + n)
    v = ValueTable(n=n, values=rng.normal(size=1 << n))
    d, iset, hist = sparsify(v, denoise)
    p_q, delta = vertex_effects(v, denoise)
    assert d.solver == "lp"
    assert np.all(np.abs(delta) <= d.zeta_bound)    # no clip to fold
    np.testing.assert_array_equal(iset.effects[:, 1:], p_q)
    assert not iset.effects[:, 0].any() and iset.bias == v.values[0]
    assert hist[-1] == np.abs(iset.effects).sum()
    scale = max(1.0, float(np.max(np.abs(v.values))))
    ref = extract(v, d)
    assert np.max(np.abs(ref.effects - iset.effects)) <= 1e-12 * scale
    assert ref.bias == iset.bias
    assert verify_matching(v, d, iset) <= 1e-12 * scale


def net_table(seed, sample, swap_first_layer):
    """An n = 8 table of the two-nets experiment: net seed 2502, with the
    first layer of seed 2503 when swap_first_layer, scoring input ``sample``
    of seed ``seed`` against a zero baseline."""
    widths = [8, 32, 32, 2]
    net = TinyNet.random(widths, rng_seed=2502)
    if swap_first_layer:
        first = TinyNet.random(widths, rng_seed=2503).weights[0]
        net = TinyNet([first, *net.weights[1:]], list(net.biases))
    x = np.random.default_rng(seed).normal(size=(4, 8))[sample]
    return net_value_table(net, MaskingScheme(x, np.zeros(8)))


def test_delta_past_its_box_by_rounding_is_kept():
    """Net a's fourth sample of seed 941: the vertex's delta passes zeta by
    3.9e-16, within the slack Decomposition.validate allows, so it is kept
    as it is, and the effects are the vertex's with nothing folded."""
    v = net_table(941, 3, swap_first_layer=False)
    d, iset, _ = sparsify(v, denoise=True)
    p_q, delta = vertex_effects(v, True)
    assert d.solver == "lp"
    assert 0.0 < np.max(np.abs(delta)) - d.zeta_bound <= 1e-12 * max(1.0, d.zeta_bound)
    np.testing.assert_array_equal(d.delta[1:], delta)
    d.validate(v)
    np.testing.assert_array_equal(iset.effects[:, 1:], p_q)
    scale = max(1.0, float(np.max(np.abs(v.values))))
    assert verify_matching(v, d, iset) <= 1e-12 * scale


def clipped_delta_table():
    """A denoised n = 8 net table whose LP vertex puts delta past its box: net
    seed 2502 with the first layer of seed 2503, the first sample of seed 952."""
    return net_table(952, 0, swap_first_layer=True)


def test_clipped_delta_effects_rebuild_the_denoised_table():
    """Clipping delta back into its box leaves 7e-9 in two slots the vertex
    holds at zero, far above the rounding bound. They are kept, so the
    effects still rebuild v - delta and stay within zeta of v; zeroing them
    moved the rebuilt table 7e-9 off v - delta, past zeta + 1e-9."""
    v = clipped_delta_table()
    d, iset, _ = sparsify(v, denoise=True)
    support = lp_vertex(v, True)[1]
    assert d.solver == "lp"
    off = np.abs(iset.effects[~support])
    assert np.count_nonzero(off > 1e-9) == 2
    scale = max(1.0, float(np.max(np.abs(v.values))))
    assert verify_matching(v, d, iset) <= 1e-12 * scale
    rebuilt = reconstruct(iset.i_and, iset.i_or, iset.bias)
    assert np.max(np.abs(rebuilt - v.values)) <= d.zeta_bound + 1e-9 * scale


def linprog_reference(base, zeta, denoise, maxiter=None, matrix=None):
    """The LP of _lp_solve, with _lp_model's costs, through scipy's public
    linprog; its rows are _lp_matrix's unless matrix is given."""
    from scipy.optimize import linprog
    a, b = base[:, 1:]
    m = a.size
    if matrix is None:
        matrix = _lp_matrix(m.bit_length(), denoise)
    cost = np.array(_lp_model(m.bit_length(), denoise).lp.col_cost_)
    bounds = np.zeros((matrix.shape[1], 2))
    bounds[:4 * m, 1] = np.inf
    bounds[4 * m:] = (-zeta, zeta)
    options = {"presolve": False} if maxiter is None else {"presolve": False,
                                                           "maxiter": maxiter}
    return linprog(cost, A_eq=matrix, b_eq=matrix[:, :m] @ a + matrix[:, 2 * m:3 * m] @ b,
                   bounds=bounds, method="highs-ds", options=options)


def assert_solve_matches_linprog(v, denoise, maxiter=None):
    base = _objective_base(v.values)
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    res = _lp_solve(base, zeta, denoise, maxiter)
    ref = linprog_reference(base, zeta, denoise, maxiter)
    assert (res.status, res.pivots) == (ref.status, ref.nit)
    if ref.x is None:
        assert res.x is None
    else:
        np.testing.assert_array_equal(res.x, ref.x)
        assert res.objective == ref.fun
    return res


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(3, 9))
def test_lp_solve_is_linprog_bit_for_bit(n, denoise):
    """The direct HiGHS path gives linprog's highs-ds vertex, pivots and
    status exactly; a scipy whose private bindings change fails here."""
    rng = np.random.default_rng(50 + n)
    res = assert_solve_matches_linprog(ValueTable(n=n, values=rng.normal(size=1 << n)),
                                       denoise)
    assert res.status == 0


def test_lp_solve_is_linprog_bit_for_bit_at_the_pivot_limit():
    rng = np.random.default_rng(40)
    v = ValueTable(n=10, values=rng.normal(size=1 << 10))
    res = assert_solve_matches_linprog(v, False, maxiter=512)
    assert (res.status, res.pivots, res.x) == (1, 512, None)


def test_lp_solves_do_not_depend_on_their_order():
    """Tables of one (n, denoise) share a cached model; solving them in
    reverse order gives the same vertices, pivots and effects."""
    rng = np.random.default_rng(60)
    tables = [ValueTable(n=6, values=rng.normal(size=64)) for _ in range(3)]
    tables.append(clipped_delta_table())
    jobs = [(v, denoise) for v in tables for denoise in (False, True)]

    def solve(v, denoise):
        zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
        res = _lp_solve(_objective_base(v.values), zeta, denoise)
        return res, sparsify(v, denoise)[1]

    forward = [solve(*job) for job in jobs]
    backward = [solve(*job) for job in jobs[::-1]][::-1]
    for (res, iset), (res_b, iset_b) in zip(forward, backward):
        assert (res.status, res.pivots, res.objective) == \
            (res_b.status, res_b.pivots, res_b.objective)
        np.testing.assert_array_equal(res.x, res_b.x)
        np.testing.assert_array_equal(iset.effects, iset_b.effects)
        assert iset.bias == iset_b.bias


def test_one_instance_per_mode_solves_interleaved_tables_like_linprog():
    """Solves of several (n, denoise) in one process, each on its mode's
    cached instance, give linprog's vertex, pivots, status and objective: a
    solve stopped at its pivot limit leaves no limit, basis or bounds behind
    for the next solve of its mode."""
    dense = ValueTable(n=10, values=np.random.default_rng(40).normal(size=1 << 10))
    game = recovery_game(0)[1]
    small = [ValueTable(n=n, values=np.random.default_rng(90 + n).normal(size=1 << n))
             for n in (6, 7, 8)]
    jobs = [(dense, False, 512), (game, False, None), (game, True, 512),
            *((v, denoise, None) for v in small for denoise in (False, True)),
            (game, False, 8), (game, False, None)]
    statuses = [assert_solve_matches_linprog(v, denoise, maxiter).status
                for v, denoise, maxiter in jobs]
    assert statuses == [1, 0, 1] + [0] * 6 + [1, 0]


def test_lp_model_passes_set_row_bounds_and_checks_every_status():
    """The instance gets a model whose row bounds are set (to zero) before
    any table's, and a HiGHS status other than kOk raises."""
    core, highs = _lp_model.__wrapped__(3, True)[:2]
    lp = highs.getLp()
    assert list(lp.row_lower_) == list(lp.row_upper_) == [0.0] * 7
    assert list(lp.col_lower_) == [0.0] * 35
    assert list(lp.col_upper_) == [np.inf] * 28 + [0.0] * 7
    assert _highs_ok(core, core.HighsStatus.kOk, "passModel") is None
    with pytest.raises(NumericalError, match="passModel"):
        _highs_ok(core, core.HighsStatus.kError, "passModel")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_4_games_solve_exactly_on_the_lp(monkeypatch, seed):
    game, v, _ = recovery_game(seed)
    d, iset, _ = sparsify(v, denoise=False)
    assert d.solver == "lp"
    assert iset.total_l1() <= huber_sparsify(monkeypatch, v, False)[2][-1] * (1 + 1e-12)
    # the ground truth's 15 effects and not one entry of rounding dust
    assert np.count_nonzero(iset.effects) == 15
    assert iset.support() == game.support()


def test_lp_recovers_game_4074():
    """The LP's minimum on this game is not unique: a vertex that trades one
    order-3 effect for an order-2 and an order-4 one of equal magnitude ties
    the ground truth under unit costs. The order weights break the tie."""
    game, v, tau = recovery_game(4074)
    d, iset, _ = sparsify(v, denoise=False)
    assert d.solver == "lp"
    assert iset.support(tau) == game.support()


def assert_optimal_under_unit_costs(v, denoise):
    """Solve v's LP with _lp_model's order-weighted costs, then set every
    effect's cost to 1 and run again from that optimal basis: it must take no
    pivot and stay optimal at the same vertex, so the weights only pick among
    the unit-cost LP's optimal vertices."""
    base = _objective_base(v.values)
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    res = _lp_solve(base, zeta, denoise)      # writes v's bounds into the instance
    core, instance = _lp_model(v.n, denoise)[:2]
    lp = instance.getLp()
    options = core.HighsOptions()
    options.presolve = "off"
    options.solver = "simplex"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = options.log_to_console = False
    highs = core._Highs()
    highs.passOptions(options)
    highs.passModel(lp)
    unit = (np.arange(lp.num_col_) < 4 * lp.num_row_).astype(float)
    for cost, pivots in ((None, res.pivots), (unit, 0)):
        if cost is not None:
            assert highs.changeColsCost(cost.size, np.arange(cost.size, dtype=np.int32),
                                        cost) == core.HighsStatus.kOk
        assert highs.run() == core.HighsStatus.kOk
        assert highs.getModelStatus() == core.HighsModelStatus.kOptimal
        assert highs.getInfo().simplex_iteration_count == pivots
        np.testing.assert_array_equal(highs.getSolution().col_value, res.x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weighted_vertex_of_criterion_4_games_is_unit_cost_optimal(seed):
    assert_optimal_under_unit_costs(recovery_game(seed)[1], False)


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_weighted_vertex_of_dense_tables_is_unit_cost_optimal(n, denoise):
    values = np.random.default_rng(70 + n).normal(size=1 << n)
    assert_optimal_under_unit_costs(ValueTable(n=n, values=values), denoise)


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
    for fraction in (-0.02, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            salience_threshold([t1, t2], fraction)


def test_filter_salient_strict_threshold():
    from andor.extraction import InteractionSet
    i_and = np.zeros(8)
    i_and[1] = 0.5
    i_and[2] = 0.5000001
    iset = InteractionSet(n=3, effects=np.stack([i_and, np.zeros(8)]), bias=0.0)
    kept = filter_salient(iset, 0.5)
    assert kept.i_and[1] == 0.0          # equal to tau: dropped
    assert kept.i_and[2] != 0.0
