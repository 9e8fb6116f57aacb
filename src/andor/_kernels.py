"""Hot numeric kernels: in-place subset transforms over 2**n tables.

Arrays are indexed by bitmask: entry ``S`` holds the value for the subset
whose members are the set bits of ``S`` (bit ``i-1`` <-> variable ``i``).
A kernel transforms the last axis of a C-contiguous ``(2**n,)`` or
``(k, 2**n)`` array, with ``n`` taken from ``shape[-1]``; every row gets the
same operations in the same order as a 1-D call, so batched rows are
bit-identical to transforming each row alone. All kernels mutate their
argument in place; callers own the copy.
"""

import numpy as np


def _levels(a: np.ndarray):
    """Yield the (lower, upper) half-block views of each butterfly level."""
    if not a.flags.c_contiguous:
        raise ValueError("subset kernels need a C-contiguous array")
    n = a.shape[-1].bit_length() - 1
    for i in range(n):
        half = 1 << i
        blocks = a.reshape(-1, half << 1)
        yield blocks[:, :half], blocks[:, half:]


def diff_transform(a: np.ndarray) -> np.ndarray:
    """In-place subset difference transform (Mobius over the subset lattice).

    After the call, a[T] = sum_{L subset of T} (-1)^(|T|-|L|) a_in[L].
    """
    for lower, upper in _levels(a):
        upper -= lower
    return a


def sum_transform(a: np.ndarray) -> np.ndarray:
    """In-place subset sum (zeta) transform: a[S] = sum_{T subset of S} a_in[T]."""
    for lower, upper in _levels(a):
        upper += lower
    return a
