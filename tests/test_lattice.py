import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andor.lattice import (LatticeSizeError, MAX_N, _diff_transform,
                           _sum_transform, as_lattice, infer_n, mobius_and,
                           mobius_or, order_counts, permute_variables,
                           table_size, zeta_subsets, zeta_supersets)

TRANSFORMS = (mobius_and, mobius_or, zeta_subsets, zeta_supersets)


def mobius_and_transpose(s):
    """Adjoint of mobius_and: out[L] = sum_{T superset L} (-1)^(|T|-|L|) s[T]."""
    return mobius_and(np.asarray(s, dtype=np.float64)[::-1])[::-1]

lattice_vectors = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1 << n, max_size=1 << n,
    ).map(np.array))


def test_infer_n_rejects_non_power_of_two():
    with pytest.raises(LatticeSizeError):
        infer_n(np.zeros(3))
    assert infer_n(np.zeros(8)) == 3


def test_order_counts_small():
    assert order_counts(3).tolist() == [0, 1, 1, 2, 1, 2, 2, 3]


def test_table_size_rejects_n_outside_the_cap():
    assert table_size(MAX_N) == 1 << MAX_N
    for n in (-1, MAX_N + 1):
        for check in (table_size, order_counts):
            with pytest.raises(LatticeSizeError,
                               match=f"^n={n} is outside the size limit 0 <= n <= {MAX_N}$"):
                check(n)
    # a vector one variable past the limit gets the same message
    for check in (infer_n, as_lattice):
        with pytest.raises(LatticeSizeError,
                           match=f"^n={MAX_N + 1} is outside the size limit 0 <= n <= {MAX_N}$"):
            check(np.zeros(1 << (MAX_N + 1)))


def test_mobius_and_hand_example():
    # u = [0,1,2,5]: I[{1,2}] = 5 - 2 - 1 + 0 = 2
    assert mobius_and([0, 1, 2, 5]).tolist() == [0, 1, 2, 2]


def test_mobius_or_hand_example():
    # n=1, u = [0,4]: I[empty] = -u[N] = -4; I[{1}] = -(u[empty] - u[N]) = 4
    assert mobius_or([0, 4]).tolist() == [-4, 4]


@given(lattice_vectors)
def test_zeta_inverts_mobius(u):
    np.testing.assert_allclose(zeta_subsets(mobius_and(u)), u, atol=1e-8)
    np.testing.assert_allclose(mobius_and(zeta_subsets(u)), u, atol=1e-8)


@given(lattice_vectors, st.floats(-100, 100), st.floats(-100, 100))
def test_transforms_are_linear(u, a, b):
    w = u[::-1].copy()
    for f in (mobius_and, mobius_or, zeta_subsets):
        np.testing.assert_allclose(
            f(a * u + b * w), a * f(u) + b * f(w), atol=1e-6)


@given(lattice_vectors, st.randoms())
def test_mobius_commutes_with_relabeling(u, rnd):
    n = infer_n(u)
    perm = list(range(n))
    rnd.shuffle(perm)
    np.testing.assert_allclose(
        mobius_and(permute_variables(u, perm)),
        permute_variables(mobius_and(u), perm), atol=1e-8)


@given(lattice_vectors)
def test_transpose_is_the_adjoint(u):
    n = infer_n(u)
    s = np.arange(table_size(n), dtype=np.float64) - 3.0
    # <M u, s> == <u, M^T s>
    lhs = float(mobius_and(u) @ s)
    rhs = float(u @ mobius_and_transpose(s))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


@given(lattice_vectors)
def test_zeta_supersets_is_the_adjoint(u):
    n = infer_n(u)
    s = np.arange(table_size(n), dtype=np.float64) - 3.0
    lhs = float(zeta_subsets(u) @ s)
    rhs = float(u @ zeta_supersets(s))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


def test_kernels_reject_strided_input():
    with pytest.raises(ValueError):
        _sum_transform(np.zeros((2, 8))[:, ::2])


def test_transforms_reject_bad_stacks():
    """A transform takes one lattice vector, not a stack of them."""
    for transform in TRANSFORMS:
        for bad in (np.zeros((2, 8)), np.zeros((2, 6)), np.zeros((2, 2, 4))):
            with pytest.raises(LatticeSizeError):
                transform(bad)


def test_permute_variables_roundtrip():
    u = np.arange(16, dtype=np.float64)
    perm = [2, 0, 3, 1]
    inv = [perm.index(i) for i in range(4)]
    np.testing.assert_array_equal(permute_variables(permute_variables(u, perm), inv), u)


def test_permute_variables_rejects_bad_perm():
    with pytest.raises(ValueError):
        permute_variables(np.zeros(8), [0, 0, 1])
