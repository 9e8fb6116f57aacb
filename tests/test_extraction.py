import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from andor import extraction, lattice
from andor.extraction import (LP_ORDER_WEIGHT, ZETA_FRACTION, NumericalError, _highs_ok,
                              _huber_sparsify, _loss_grad, _lp_matrix, _lp_model, _lp_rhs,
                              _lp_solve, _lp_sparsify, _split_effects, all_and, even_split,
                              filter_salient, salience_threshold, sparsify)
from andor.lattice import mobius_and, mobius_or, zeta_subsets
from andor.models import (MaskingScheme, TinyNet, ValueTable, interaction_function_table,
                          net_value_table, realize_table,
                          sample_sparse_game)
from andor.oracle import brute_and, brute_or, reconstruct, verify_matching
from test_acceptance import recovery_game
from test_lattice import mobius_and_transpose


def lp_vertex(v, denoise):
    """(effects, support) of v's LP vertex, or None when its pivot budget
    runs out: effects as _lp_sparsify returns them, support True where the
    vertex's own effect p = p+ - p- (AND row) or q = q+ - q- (OR row) is
    nonzero."""
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    vertex = _lp_sparsify(v.values, zeta, denoise)
    if vertex is None:
        return None
    support = np.zeros((2, v.values.size), dtype=bool)
    support[:, 1:] = vertex_effects(v, denoise)[0] != 0.0
    return vertex[0], support


def vertex_effects(v, denoise):
    """Rows p = p+ - p- and q = q+ - q- of the uncapped LP vertex's columns,
    over the nonempty subsets, and its delta columns."""
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    x = _lp_solve(v.values, zeta, denoise)[0]
    m = v.values.size - 1
    p_q = x[:4 * m].reshape(2, 2, m)
    return p_q[:, 0] - p_q[:, 1], x[4 * m:]


def assert_at_most_the_closed_forms(v, result):
    """The L1 of result is at most the least of the closed forms': within the
    order weights' factor 1 + LP_ORDER_WEIGHT * n**2 on the LP path, and
    exactly on the Huber path, which keeps the best of them."""
    closed = min(even_split(v).total_l1(), all_and(v).total_l1())
    factor = 1 + LP_ORDER_WEIGHT * v.n ** 2 if result.solver == "lp" else 1.0
    assert result.interactions.total_l1() <= factor * closed


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


def test_even_split_rebuilds_the_table(random_table):
    """u_and = u_or = v/2 beyond the empty set, where u_and holds v[0]."""
    v = random_table
    iset = even_split(v)
    u_and, u_or = 0.5 * v.values, 0.5 * v.values
    u_and[0], u_or[0] = v.values[0], 0.0
    np.testing.assert_allclose(iset.i_and[1:], mobius_and(u_and)[1:], atol=1e-12)
    np.testing.assert_allclose(iset.i_or[1:], mobius_or(u_or)[1:], atol=1e-12)
    assert iset.bias == v.values[0] and iset.label == v.label
    assert verify_matching(v, iset, 0.0) <= 1e-12


def test_all_and_decomposition_puts_everything_on_and(random_table):
    iset = all_and(random_table)
    assert not iset.i_or.any()
    assert iset.bias == random_table.values[0]
    np.testing.assert_array_equal(iset.i_and[1:], mobius_and(random_table.values)[1:])


def test_extract_pure_and_interaction():
    v = interaction_function_table(0b0101, 2.0, "and", 4)
    iset = all_and(v)
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


def test_sparsify_paths_stay_within_the_closed_forms(both_paths, huber_max_iters):
    huber_max_iters(50)
    for v, solver in zip(both_paths, ("lp", "huber")):
        result = sparsify(v)
        assert result.solver == solver
        assert_at_most_the_closed_forms(v, result)


def test_sparsify_beats_all_and(random_table):
    iset = sparsify(random_table).interactions
    assert iset.total_l1() <= all_and(random_table).total_l1() + 1e-9


@pytest.mark.parametrize("values", [[0.0, 1.0], [0.0, 1.0, 1.0, 2.0]])
def test_lp_returns_the_vertex_on_an_l1_tie(values):
    """On an additive table the even split's L1 ties the vertex's, and the
    vertex is returned as solved: its own p and q, bit for bit."""
    v = ValueTable(n=len(values).bit_length() - 1, values=np.array(values))
    result = sparsify(v, denoise=False)
    assert result.solver == "lp"
    assert result.interactions.total_l1() == even_split(v).total_l1()
    np.testing.assert_array_equal(result.interactions.effects[:, 1:],
                                  vertex_effects(v, False)[0])


def test_sparsify_delta_stays_in_box(random_table):
    delta = sparsify(random_table).delta
    zeta = ZETA_FRACTION * random_table.gap()
    assert delta.shape == random_table.values.shape and delta[0] == 0.0
    assert np.max(np.abs(delta)) <= zeta + 1e-12 * max(1.0, zeta)


def test_sparsify_recovers_a_small_game():
    game = sample_sparse_game(6, 5, {2: 1.0}, 4.0, rng_seed=21,
                              magnitude_floor=3.0, antichain=True)
    v = realize_table(game)
    iset = sparsify(v, denoise=False).interactions
    tau = 0.02 * v.gap()
    assert iset.support(tau) == game.support()


def _unpack(x, values, denoise):
    """(u_and, delta) of the packed AND effects p[1:] (then delta[1:]):
    u_and = zeta_subsets(p) with p[0] = v[0]."""
    size = values.size
    p = np.empty(size)
    p[0] = values[0]
    p[1:] = x[:size - 1]
    delta = np.zeros(size)
    if denoise:
        delta[1:] = x[size - 1:]
    return zeta_subsets(p), delta


def _six_transform_loss_grad(x, mu, values, denoise):
    """The objective in (gamma, delta) form, gamma = u_and - (v - delta)/2:
    six transforms per evaluation."""
    u_and, delta = _unpack(x, values, denoise)
    half = 0.5 * (values - delta)
    gamma = u_and - half
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
    g_gamma = g_u_and - g_u_or
    # adjoint of zeta_subsets: sums over supersets
    g_p = zeta_subsets(g_gamma[::-1])[::-1]
    if not denoise:
        return f, g_p[1:]
    # delta moves half by -delta/2 and gamma by +delta/2
    g_delta = -0.5 * (g_u_and + g_u_or) + 0.5 * g_gamma
    return f, np.concatenate([g_p[1:], g_delta[1:]])


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
    or_base = mobius_or(values)
    for mu in (1e-3, 0.1, 10.0):
        f, g = _loss_grad(x, mu, or_base, denoise)
        f_ref, g_ref = _six_transform_loss_grad(x, mu, values, denoise)
        assert f == pytest.approx(f_ref, rel=1e-12)
        np.testing.assert_allclose(g, g_ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(g_ref)))


@pytest.mark.parametrize("denoise", [False, True])
def test_loss_grad_finite_differences(denoise):
    values, x = _random_point(5, denoise, seed=3)
    or_base = mobius_or(values)
    mu, h = 50.0, 1e-6      # a wide Huber width keeps every effect quadratic
    _, g = _loss_grad(x, mu, or_base, denoise)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        fd = (_loss_grad(x + step, mu, or_base, denoise)[0]
              - _loss_grad(x - step, mu, or_base, denoise)[0]) / (2 * h)
        assert fd == pytest.approx(g[j], rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("denoise", [False, True])
def test_loss_grad_transform_rows_per_evaluation(monkeypatch, denoise):
    """One evaluation runs two one-row lattice transforms, a superset sum
    and its adjoint, and two more when denoising, mobius_or of delta and its
    adjoint."""
    rows = []
    for name in ("_diff_transform", "_sum_transform"):
        kernel = getattr(lattice, name)
        monkeypatch.setattr(lattice, name,
                            lambda a, kernel=kernel: rows.append(a.size // a.shape[-1])
                            or kernel(a))
    values, x = _random_point(6, denoise, seed=5)
    or_base = mobius_or(values)
    rows.clear()
    _loss_grad(x, 0.1, or_base, denoise)
    assert rows == [1] * (4 if denoise else 2)


@pytest.mark.parametrize("denoise", [False, True])
def test_split_effects_match_the_oracle(denoise):
    """The rows are the oracle's effects of u_and = zeta_subsets(p), p[0] = v[0],
    and u_or = v - delta - u_and."""
    values, x = _random_point(6, denoise, seed=11)
    effects = _split_effects(x, mobius_or(values), denoise)
    u_and, delta = _unpack(x, values, denoise)
    i_and, i_or = brute_and(u_and), brute_or(values - delta - u_and)
    i_and[0] = i_or[0] = 0.0
    np.testing.assert_allclose(effects[0], i_and, atol=1e-10)
    np.testing.assert_allclose(effects[1], i_or, atol=1e-10)


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_lp_matrix_matches_split_effects(n, denoise):
    """The LP's rows hold for the effects of any (p, delta), with the
    right-hand side R'(S a - b), a = mobius_and(v/2) and b = mobius_or(v/2):
    this checks S and K."""
    values, x = _random_point(n, denoise, seed=20 + n)
    p, q = _split_effects(x, mobius_or(values), denoise)[:, 1:]
    a, b = mobius_and(0.5 * values)[1:], mobius_or(0.5 * values)[1:]
    m = a.size
    matrix = lp_matrix(n, denoise)
    z = np.concatenate([np.maximum(p, 0), np.maximum(-p, 0),
                        np.maximum(q, 0), np.maximum(-q, 0), x[m:] if denoise else []])
    np.testing.assert_allclose(matrix @ z, matrix[:, :m] @ a + matrix[:, 2 * m:3 * m] @ b,
                               atol=1e-10)


def lp_matrix(n, denoise):
    """_lp_matrix as a scipy.sparse array."""
    matrix = _lp_matrix(n, denoise)
    return sp.csc_array((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


def plain_lp_matrix(n, denoise):
    """[S, -S, -I, I] (then K when denoising) over the nonempty subsets: the
    L1 LP's rows before _lp_matrix's row transform."""
    s = k = sp.csr_array(np.ones((1, 1)))
    for _ in range(n):
        s = sp.kron(s, sp.csr_array([[1.0, 1.0], [0.0, -1.0]]), format="csr")
        k = sp.kron(k, sp.csr_array([[0.0, 1.0], [1.0, -1.0]]), format="csr")
    s = s[1:, 1:]
    eye = sp.eye_array(s.shape[0], format="csr")
    return sp.hstack([s, -s, -eye, eye] + ([k[1:, 1:]] if denoise else []), format="csc")


def scipy_lp_matrix(n, denoise):
    """_lp_matrix's rows R'[S, -S, -I, I] (then R'K), built by scipy.sparse's
    kron and hstack."""
    t = np.array([[1.0, 1.0], [0.0, -1.0]])
    k_bit = np.array([[0.0, 1.0], [1.0, -1.0]])
    rs = r = rk = sp.csr_array(np.ones((1, 1)))
    for bit in range(n):
        r_bit = t if bit < n // 2 else np.eye(2)
        rs = sp.kron(rs, sp.csr_array(r_bit @ t), format="csr")
        r = sp.kron(r, sp.csr_array(r_bit), format="csr")
        rk = sp.kron(rk, sp.csr_array(r_bit @ k_bit), format="csr")
    rs, r = rs[1:, 1:], r[1:, 1:]
    return sp.hstack([rs, -rs, -r, r] + ([rk[1:, 1:]] if denoise else []), format="csc")


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(1, 11))
def test_lp_matrix_and_rhs_are_scipy_sparse_bit_for_bit(n, denoise):
    """The numpy-built matrix holds scipy.sparse's CSC arrays entry for
    entry; test_lp_rhs_is_one_transform_of_the_table checks the row bounds
    against that matrix."""
    matrix, ref = _lp_matrix(n, denoise), scipy_lp_matrix(n, denoise)
    assert matrix.shape == ref.shape
    for arr, ref_arr in ((matrix.data, ref.data), (matrix.indices, ref.indices),
                         (matrix.indptr, ref.indptr)):
        assert arr.dtype == ref_arr.dtype
        np.testing.assert_array_equal(arr, ref_arr)


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(1, 11))
def test_lp_rhs_is_one_transform_of_the_table(n, denoise):
    """_lp_rhs(v) is the right-hand side R'(S a - b) of the rows, the
    scipy.sparse product of their p+ and q+ blocks with a = mobius_and(v/2)
    and b = mobius_or(v/2), to 1e-13 * max(1, max|v|). At v[0] = 0
    it is the denoised rows' delta block times v[1:]: the rows hold at
    p = q = 0, delta = v."""
    ref = scipy_lp_matrix(n, denoise)
    m = (1 << n) - 1
    rng = np.random.default_rng(70 + n)
    for scale in (1e-3, 1.0, 1e3):
        values = scale * rng.normal(size=m + 1)
        atol = 1e-13 * max(1.0, np.max(np.abs(values)))
        a, b = mobius_and(0.5 * values)[1:], mobius_or(0.5 * values)[1:]
        np.testing.assert_allclose(_lp_rhs(values), ref[:, :m] @ a + ref[:, 2 * m:3 * m] @ b,
                                   rtol=0, atol=atol)
        if denoise:
            values[0] = 0.0
            np.testing.assert_allclose(_lp_rhs(values), ref[:, 4 * m:] @ values[1:],
                                       rtol=0, atol=atol)


def test_lp_path_loads_only_the_highs_extension():
    """A fresh interpreter's sparsify, both modes, loads scipy's HiGHS
    extension and no other scipy module; a later scipy.optimize reuses that
    module object, and linprog runs on it."""
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from andor.extraction import _lp_model, sparsify",
        "from andor.models import ValueTable",
        "v = ValueTable(n=8, values=np.random.default_rng(8).normal(size=256))",
        "assert [sparsify(v, d).solver for d in (False, True)] == ['lp', 'lp']",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "from scipy.optimize import linprog",
        "res = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method='highs-ds')",
        "assert res.status == 0 and list(res.x) == [1.0, 0.0], res",
        "print(sys.modules['scipy.optimize._highspy._core'] is _lp_model(8, True).core)"])
    src = str(Path(extraction.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines() == [
        "['scipy.optimize._highspy._core', 'scipy.optimize._highspy._core.cb', "
        "'scipy.optimize._highspy._core.simplex_constants']", "True"]


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_lp_matrix_is_the_plain_rows_transformed(n, denoise):
    """The q- block of _lp_matrix is the row transform R', its own inverse:
    R' times the matrix gives the plain rows entry for entry."""
    m = (1 << n) - 1
    matrix = lp_matrix(n, denoise)
    r = matrix[:, 3 * m:4 * m]
    np.testing.assert_array_equal((r @ r).toarray(), np.eye(m))
    np.testing.assert_array_equal((r @ matrix).toarray(),
                                  plain_lp_matrix(n, denoise).toarray())


def test_lp_matrix_nonzeros_at_n10():
    assert (plain_lp_matrix(10, False).nnz, plain_lp_matrix(10, True).nnz) == \
        (118096, 177143)
    assert (lp_matrix(10, False).nnz, lp_matrix(10, True).nnz) == (30976, 89992)


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(3, 9))
def test_row_transform_keeps_the_minimum(n, denoise):
    """_lp_solve's vertex solves the plain rows and has the unit L1 of
    linprog's vertex on them, with the same costs."""
    v = ValueTable(n=n, values=np.random.default_rng(80 + n).normal(size=1 << n))
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    m = v.values.size - 1
    plain = plain_lp_matrix(n, denoise)
    x = _lp_solve(v.values, zeta, denoise)[0]
    ref = linprog_reference(v.values, zeta, denoise, plain=True)
    assert x is not None and ref.status == 0
    np.testing.assert_allclose(plain @ x, plain @ ref.x, atol=1e-9)
    assert np.abs(x[:4 * m]).sum() == pytest.approx(np.abs(ref.x[:4 * m]).sum(), rel=1e-12)


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(4, 8))
def test_lp_reaches_at_most_the_huber_loss(n, denoise):
    rng = np.random.default_rng(30 + n)
    v = ValueTable(n=n, values=rng.normal(size=1 << n))
    result = sparsify(v, denoise)
    loss = result.interactions.total_l1()
    huber_loss = _huber_sparsify(v, denoise).interactions.total_l1()
    assert result.solver == "lp"
    assert loss <= huber_loss * (1 + 1e-12)
    assert loss < even_split(v).total_l1()
    assert_at_most_the_closed_forms(v, result)
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    assert np.max(np.abs(result.delta)) <= zeta + 1e-12 * max(1.0, zeta)


@pytest.mark.parametrize("denoise", [False, True])
def test_dense_n10_falls_back_to_huber_bit_identically(huber_max_iters, denoise):
    huber_max_iters(50)
    values = np.random.default_rng(40).normal(size=1 << 10)
    # at unit spread, which sparsify hands to _huber_sparsify unchanged
    values = np.ldexp(values, -np.frexp(np.max(np.abs(values - values[0])))[1])
    v = ValueTable(n=10, values=values)
    assert lp_vertex(v, denoise) is None        # the pivot budget runs out
    result = sparsify(v, denoise)
    huber = _huber_sparsify(v, denoise)
    assert result.solver == "huber"
    np.testing.assert_array_equal(result.interactions.effects, huber.interactions.effects)
    np.testing.assert_array_equal(result.delta, huber.delta)
    # the Huber effects are the best iterate's own: they rebuild v - delta
    scale = max(1.0, float(np.max(np.abs(v.values))))
    assert verify_matching(v, result.interactions, result.delta) <= 1e-12 * scale
    # L-BFGS-B's bounds keep the delta in its box, with delta(empty) pinned
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    assert result.delta[0] == 0.0
    assert np.max(np.abs(result.delta)) <= zeta + 1e-12 * max(1.0, zeta)


def assert_scale_equivariant(v, denoise):
    """sparsify(2**k * v) is 2**k * sparsify(v) bit for bit, effects, delta
    and solver, with the bias 2**k * v(empty); returns sparsify(v)."""
    result = sparsify(v, denoise)
    for k in (-900, -30, 30, 60, 900):
        scaled = sparsify(ValueTable(n=v.n, values=np.ldexp(v.values, k)), denoise)
        assert scaled.solver == result.solver, k
        np.testing.assert_array_equal(scaled.interactions.effects,
                                      np.ldexp(result.interactions.effects, k))
        np.testing.assert_array_equal(scaled.delta, np.ldexp(result.delta, k))
        assert scaled.interactions.bias == np.ldexp(v.values[0], k)
    return result


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_lp_path_is_scale_equivariant(n, denoise):
    v = ValueTable(n=n, values=np.random.default_rng(90 + n).normal(size=1 << n))
    assert assert_scale_equivariant(v, denoise).solver == "lp"


@pytest.mark.parametrize("denoise", [False, True])
def test_huber_path_is_scale_equivariant(huber_max_iters, denoise):
    huber_max_iters(30)
    v = ValueTable(n=11, values=np.random.default_rng(91).normal(size=1 << 11))
    assert assert_scale_equivariant(v, denoise).solver == "huber"


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", [4, 8])
def test_offset_table_solves_as_the_unshifted_one(n, denoise):
    """1 + 1e-9 * noise has the effects of its unshifted table w - 1, which
    float64 holds exactly: the L1 matches to 1e-8 relative, and the effects
    rebuild w - delta to a millionth of the spread."""
    w = ValueTable(n=n, values=1.0 + 1e-9 * np.random.default_rng(92 + n).normal(size=1 << n))
    result = assert_scale_equivariant(w, denoise)
    unshifted = sparsify(ValueTable(n=n, values=w.values - 1.0), denoise)
    assert result.interactions.total_l1() == pytest.approx(
        unshifted.interactions.total_l1(), rel=1e-8)
    spread = np.max(np.abs(w.values - w.values[0]))
    assert verify_matching(w, result.interactions, result.delta) <= 1e-6 * spread


@pytest.mark.parametrize("denoise", [False, True])
def test_huber_widths_follow_the_spread(monkeypatch, huber_max_iters, denoise):
    """Each Huber stage's width is a fraction of the spread about v(empty),
    so v and v + 2**20 (which float64 holds exactly, v being on a 2**-20
    grid) are solved with the same widths."""
    huber_max_iters(3)
    minimize, widths = extraction.minimize, []

    def recording(fun, x, args, **kwargs):
        widths.append(args[0])
        return minimize(fun, x, args=args, **kwargs)

    monkeypatch.setattr(extraction, "minimize", recording)
    w = np.round(np.random.default_rng(93).normal(size=1 << 11) * 2 ** 20) / 2 ** 20
    for offset in (0.0, 2.0 ** 20):
        assert sparsify(ValueTable(n=11, values=w + offset), denoise).solver == "huber"
    stages = len(extraction.SMOOTHING_STAGES)
    assert len(widths) == 2 * stages
    assert widths[:stages] == widths[stages:]


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", [0, 4, 11])
def test_constant_table_is_its_bias_without_a_solve(monkeypatch, n, denoise):
    """A table of spread 0 gets zero effects and delta and solver "": no
    HiGHS model is built and minimize is not called."""
    def solve(*args, **kwargs):
        raise AssertionError("a constant table was solved")

    monkeypatch.setattr(extraction, "_lp_model", solve)
    monkeypatch.setattr(extraction, "minimize", solve)
    result = sparsify(ValueTable(n=n, values=np.full(1 << n, -2.5)), denoise)
    assert (result.solver, result.interactions.bias) == ("", -2.5)
    np.testing.assert_array_equal(result.interactions.effects, np.zeros((2, 1 << n)))
    np.testing.assert_array_equal(result.delta, np.zeros(1 << n))


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(4, 9))
def test_lp_writes_the_vertex_effects(n, denoise):
    """The written effects are the vertex's own p and q, bit for bit, with
    the empty-set slots 0, and the returned delta is the vertex's."""
    rng = np.random.default_rng(60 + n)
    v = ValueTable(n=n, values=rng.normal(size=1 << n))
    result = sparsify(v, denoise)
    iset = result.interactions
    p_q, delta = vertex_effects(v, denoise)
    assert result.solver == "lp"
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    assert np.all(np.abs(delta) <= zeta)    # no clip to fold
    np.testing.assert_array_equal(iset.effects[:, 1:], p_q)
    np.testing.assert_array_equal(result.delta[1:], delta if denoise else 0.0)
    assert result.delta[0] == 0.0
    assert not iset.effects[:, 0].any() and iset.bias == v.values[0]
    assert_at_most_the_closed_forms(v, result)
    scale = max(1.0, float(np.max(np.abs(v.values))))
    assert verify_matching(v, iset, result.delta) <= 1e-12 * scale


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
    3.9e-16, within the slack of 1e-12 * max(1, zeta) that _lp_sparsify
    allows, so it is kept as it is, and the effects are the vertex's with
    nothing folded."""
    v = net_table(941, 3, swap_first_layer=False)
    result = sparsify(v, denoise=True)
    iset = result.interactions
    p_q, delta = vertex_effects(v, True)
    zeta = ZETA_FRACTION * v.gap()
    assert result.solver == "lp"
    assert 0.0 < np.max(np.abs(delta)) - zeta <= 1e-12 * max(1.0, zeta)
    np.testing.assert_array_equal(result.delta[1:], delta)
    np.testing.assert_array_equal(iset.effects[:, 1:], p_q)
    scale = max(1.0, float(np.max(np.abs(v.values))))
    assert verify_matching(v, iset, result.delta) <= 1e-12 * scale


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
    result = sparsify(v, denoise=True)
    iset = result.interactions
    support = lp_vertex(v, True)[1]
    zeta = ZETA_FRACTION * v.gap()
    assert result.solver == "lp"
    assert np.max(np.abs(result.delta)) <= zeta
    off = np.abs(iset.effects[~support])
    assert np.count_nonzero(off > 1e-9) == 2
    scale = max(1.0, float(np.max(np.abs(v.values))))
    assert verify_matching(v, iset, result.delta) <= 1e-12 * scale
    rebuilt = reconstruct(iset.i_and, iset.i_or, iset.bias)
    assert np.max(np.abs(rebuilt - v.values)) <= zeta + 1e-9 * scale


def linprog_reference(values, zeta, denoise, maxiter=None, plain=False):
    """The LP of _lp_solve, with _lp_model's costs, through scipy's public
    linprog: on _lp_matrix's rows with _lp_rhs's bounds, or with plain on
    the plain rows with their right-hand side S a - b, a = mobius_and(v/2)
    and b = mobius_or(v/2), as scipy.sparse multiplies it out."""
    from scipy.optimize import linprog
    m = values.size - 1
    n = m.bit_length()
    if plain:
        matrix = plain_lp_matrix(n, denoise)
        a, b = mobius_and(0.5 * values)[1:], mobius_or(0.5 * values)[1:]
        rhs = matrix[:, :m] @ a + matrix[:, 2 * m:3 * m] @ b
    else:
        matrix, rhs = lp_matrix(n, denoise), _lp_rhs(values)
    cost = np.array(_lp_model(n, denoise).lp.col_cost_)
    bounds = np.zeros((matrix.shape[1], 2))
    bounds[:4 * m, 1] = np.inf
    bounds[4 * m:] = (-zeta, zeta)
    options = {"presolve": False} if maxiter is None else {"presolve": False,
                                                           "maxiter": maxiter}
    return linprog(cost, A_eq=matrix, b_eq=rhs, bounds=bounds, method="highs-ds",
                   options=options)


def assert_solve_matches_linprog(v, denoise, maxiter=None):
    """_lp_solve's (vertex, pivots) of v, which must be linprog's: its
    status 1 (the pivot limit) where the vertex is None, else 0."""
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    x, pivots = _lp_solve(v.values, zeta, denoise, maxiter)
    ref = linprog_reference(v.values, zeta, denoise, maxiter)
    assert (1 if x is None else 0, pivots) == (ref.status, ref.nit)
    if ref.x is None:
        assert x is None
    else:
        np.testing.assert_array_equal(x, ref.x)
    return x, pivots


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", range(3, 9))
def test_lp_solve_is_linprog_bit_for_bit(n, denoise):
    """The direct HiGHS path gives linprog's highs-ds vertex, pivots and
    status exactly; a scipy whose private bindings change fails here."""
    rng = np.random.default_rng(50 + n)
    x, _ = assert_solve_matches_linprog(ValueTable(n=n, values=rng.normal(size=1 << n)),
                                        denoise)
    assert x is not None


def test_lp_solve_is_linprog_bit_for_bit_at_the_pivot_limit():
    rng = np.random.default_rng(40)
    v = ValueTable(n=10, values=rng.normal(size=1 << 10))
    x, pivots = assert_solve_matches_linprog(v, False, maxiter=512)
    assert (x, pivots) == (None, 512)


def test_lp_solves_do_not_depend_on_their_order():
    """Tables of one (n, denoise) share a cached model; solving them in
    reverse order gives the same vertices, pivots and effects."""
    rng = np.random.default_rng(60)
    tables = [ValueTable(n=6, values=rng.normal(size=64)) for _ in range(3)]
    tables.append(clipped_delta_table())
    jobs = [(v, denoise) for v in tables for denoise in (False, True)]

    def solve(v, denoise):
        zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
        return _lp_solve(v.values, zeta, denoise), sparsify(v, denoise).interactions

    forward = [solve(*job) for job in jobs]
    backward = [solve(*job) for job in jobs[::-1]][::-1]
    for ((x, pivots), iset), ((x_b, pivots_b), iset_b) in zip(forward, backward):
        assert x is not None and pivots == pivots_b
        np.testing.assert_array_equal(x, x_b)
        np.testing.assert_array_equal(iset.effects, iset_b.effects)
        assert iset.bias == iset_b.bias


def test_one_instance_per_mode_solves_interleaved_tables_like_linprog():
    """Solves of several (n, denoise) in one process, each on its mode's
    cached instance, give linprog's vertex, pivots and status: a
    solve stopped at its pivot limit leaves no limit, basis or bounds behind
    for the next solve of its mode."""
    dense = ValueTable(n=10, values=np.random.default_rng(40).normal(size=1 << 10))
    game = recovery_game(0)[1]
    small = [ValueTable(n=n, values=np.random.default_rng(90 + n).normal(size=1 << n))
             for n in (6, 7, 8)]
    jobs = [(dense, False, 512), (game, False, None), (game, True, 512),
            *((v, denoise, None) for v in small for denoise in (False, True)),
            (game, False, 8), (game, False, None)]
    optimal = [assert_solve_matches_linprog(v, denoise, maxiter)[0] is not None
               for v, denoise, maxiter in jobs]
    assert optimal == [False, True, False] + [True] * 6 + [False, True]


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
def test_criterion_4_games_solve_exactly_on_the_lp(seed):
    game, v, _ = recovery_game(seed)
    result = sparsify(v, denoise=False)
    iset = result.interactions
    assert result.solver == "lp"
    huber_l1 = _huber_sparsify(v, False).interactions.total_l1()
    assert iset.total_l1() <= huber_l1 * (1 + 1e-12)
    # the ground truth's 15 effects and not one entry of rounding dust
    assert np.count_nonzero(iset.effects) == 15
    assert iset.support() == game.support()


def test_lp_recovers_game_4074():
    """The LP's minimum on this game is not unique: a vertex that trades one
    order-3 effect for an order-2 and an order-4 one of equal magnitude ties
    the ground truth under unit costs. The order weights break the tie."""
    game, v, tau = recovery_game(4074)
    result = sparsify(v, denoise=False)
    assert result.solver == "lp"
    assert result.interactions.support(tau) == game.support()


def assert_optimal_under_unit_costs(v, denoise):
    """Solve v's LP with _lp_model's order-weighted costs, then set every
    effect's cost to 1 and run again from that optimal basis: it must take no
    pivot and stay optimal at the same vertex, so the weights only pick among
    the unit-cost LP's optimal vertices."""
    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
    x, pivots = _lp_solve(v.values, zeta, denoise)    # writes v's bounds into the instance
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
    for cost, expected in ((None, pivots), (unit, 0)):
        if cost is not None:
            assert highs.changeColsCost(cost.size, np.arange(cost.size, dtype=np.int32),
                                        cost) == core.HighsStatus.kOk
        assert highs.run() == core.HighsStatus.kOk
        assert highs.getModelStatus() == core.HighsModelStatus.kOptimal
        assert highs.getInfo().simplex_iteration_count == expected
        np.testing.assert_array_equal(highs.getSolution().col_value, x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weighted_vertex_of_criterion_4_games_is_unit_cost_optimal(seed):
    assert_optimal_under_unit_costs(recovery_game(seed)[1], False)


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_weighted_vertex_of_dense_tables_is_unit_cost_optimal(n, denoise):
    values = np.random.default_rng(70 + n).normal(size=1 << n)
    assert_optimal_under_unit_costs(ValueTable(n=n, values=values), denoise)


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
