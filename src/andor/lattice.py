"""Bitmask subset lattice and fast signed subset-sum transforms.

Subsets of N = {1..n} are bitmasks: bit i-1 set <=> variable i in S, index 0
is the empty set. A lattice vector is a float64 array of length 2**n indexed
by bitmask. All transforms take one lattice vector and are pure: they copy
their input and run an in-place butterfly kernel (``_diff_transform`` or
``_sum_transform``) on the copy.

MAX_N is the package's one limit on input size: every table and effect file
is refused above it as it is read or built. It is 14 because every file a
command writes must be checkable by the brute-force ``oracle``, whose table
of the 3**n (mask, subset) pairs takes 43 MB at n = 14.
"""

import numpy as np

MAX_N = 14


class LatticeSizeError(ValueError):
    pass


def table_size(n: int) -> int:
    """2**n, for 0 <= n <= MAX_N; checked before anything allocates a table."""
    if not 0 <= n <= MAX_N:
        raise LatticeSizeError(f"n={n} is outside the size limit 0 <= n <= {MAX_N}")
    return 1 << n


def infer_n(values: np.ndarray) -> int:
    """Variable count of a lattice vector; rejects non-power-of-two lengths."""
    return _size_to_n(len(values))


def _size_to_n(size: int) -> int:
    n = size.bit_length() - 1
    if size <= 0 or (1 << n) != size:
        raise LatticeSizeError(f"lattice vector length {size} is not a power of two")
    table_size(n)                       # refuses n > MAX_N
    return n


def as_lattice(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise LatticeSizeError("lattice vector must be one-dimensional")
    infer_n(arr)
    return arr


def order_counts(n: int) -> np.ndarray:
    """Population count (subset order) per bitmask index, as uint8."""
    idx = np.arange(table_size(n), dtype=np.uint32)
    return np.bitwise_count(idx).astype(np.uint8)


def _levels(a: np.ndarray):
    """Yield the (lower, upper) half-block views of each butterfly level."""
    if not a.flags.c_contiguous:
        raise ValueError("subset kernels need a C-contiguous array")
    n = a.shape[-1].bit_length() - 1
    for i in range(n):
        half = 1 << i
        blocks = a.reshape(-1, half << 1)
        yield blocks[:, :half], blocks[:, half:]


def _diff_transform(a: np.ndarray) -> np.ndarray:
    """In place: a[T] = sum_{L subset of T} (-1)^(|T|-|L|) a_in[L]."""
    for lower, upper in _levels(a):
        upper -= lower
    return a


def _sum_transform(a: np.ndarray) -> np.ndarray:
    """In place: a[S] = sum_{T subset of S} a_in[T]."""
    for lower, upper in _levels(a):
        upper += lower
    return a


def mobius_and(u) -> np.ndarray:
    """AND-interaction transform: I[T] = sum_{L subset T} (-1)^(|T|-|L|) u[L].

    O(n * 2**n) dimension-by-dimension difference transform.
    """
    out = as_lattice(u).copy()
    return _diff_transform(out)


def mobius_or(u) -> np.ndarray:
    """OR-interaction transform: I[T] = -sum_{L subset T} (-1)^(|T|-|L|) u[N\\L].

    Complement reindexing is a reversal: (2**n - 1) ^ L == 2**n - 1 - L.
    """
    out = as_lattice(u)[::-1].copy()
    _diff_transform(out)
    np.negative(out, out=out)
    return out


def zeta_subsets(i) -> np.ndarray:
    """Subset aggregation: g[S] = sum_{T subset S} I[T]; inverse of mobius_and."""
    out = as_lattice(i).copy()
    return _sum_transform(out)


def zeta_supersets(g) -> np.ndarray:
    """Superset aggregation: out[T] = sum_{S superset T} g[S]; adjoint of zeta_subsets."""
    out = as_lattice(g)[::-1].copy()
    _sum_transform(out)
    return out[::-1].copy()


def permute_variables(values, perm) -> np.ndarray:
    """Relabel variables: perm[i] is the new position (0-based) of variable i+1."""
    arr = as_lattice(values)
    n = infer_n(arr)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    idx = np.arange(1 << n)
    new_idx = np.zeros_like(idx)
    for i, p in enumerate(perm):
        new_idx |= ((idx >> i) & 1) << p
    out = np.empty_like(arr)
    out[new_idx] = arr
    return out
