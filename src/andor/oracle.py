"""Brute-force reference implementations for differential testing.

Every function here evaluates its defining sum literally and shares no code
with the fast transforms in ``lattice``. The sums run over every pair
``(S, L)`` with ``L`` a submask of ``S``: ``_submask_pairs`` lists those 3**n
pairs once per n, with the sign ``(-1)**(|S|-|L|)``, and ``_pair_sums`` adds
each pair's term into its ``S`` slot, one term at a time in the pair order.
No partial sums are shared between masks, unlike the O(n * 2**n) fast
transforms these paths certify. Size is capped at n <= 14, where the pairs
take about 43 MB (int32 indices, int8 signs).

``_pair_sums`` gathers the terms PAIR_CHUNK pairs at a time, not all 3**n at
once. One gather of all of them allocates a float64 array of 3**n entries
per sum, 472 KB at n = 10 and 4.25 MB at n = 12. Arrays that large lie
above glibc's mmap threshold (128 KB until the process frees a larger
mapped block), so each is mapped afresh and page-faults on first touch:
about 370 minor faults per ``oracle verify`` of an n = 10 table. A chunk's
terms take at most 64 KB, which the heap reuses. ``np.add.at`` adds term by
term, in the order and with the rounding of one ``np.bincount`` over all
the pairs, so the results are bit-identical to the unchunked sums.
``reconstruct`` runs its AND and OR sums as one pass over complex terms.
"""

from functools import cache

import numpy as np

from .lattice import LatticeSizeError, infer_n

ORACLE_MAX_N = 14
# Pairs per chunk of _pair_sums: 32 KB of float64 terms, 64 KB of complex.
PAIR_CHUNK = 4096


def _check_size(values: np.ndarray) -> int:
    n = infer_n(values)
    if n > ORACLE_MAX_N:
        raise LatticeSizeError(f"oracle paths are capped at n <= {ORACLE_MAX_N}, got {n}")
    return n


@cache
def _submask_pairs(n: int):
    """All 3**n pairs (S, L subset S) as read-only (s, l, sign) arrays.

    Built one variable at a time: each variable is absent from S, in both S
    and L, or in S only (flipping the sign). That order lists the L of each S
    in descending order, the order of the usual ``l = (l - 1) & s`` submask
    walk, so the sums accumulate term by term in that order.
    """
    s = np.zeros(1, dtype=np.int32)
    l = np.zeros(1, dtype=np.int32)
    sign = np.ones(1, dtype=np.int8)
    for i in range(n):
        bit = np.int32(1 << i)
        s = np.concatenate((s, s | bit, s | bit))
        l = np.concatenate((l, l | bit, l))
        sign = np.concatenate((sign, sign, -sign))
    for a in (s, l, sign):
        a.setflags(write=False)
    return s, l, sign


def _pair_sums(values: np.ndarray, n: int, signed: bool, complement: bool = False
               ) -> np.ndarray:
    """out[S] = sum over L subset S of values[L], times (-1)^(|S|-|L|) when
    signed, and of values[N\\L] instead when complement.

    The terms are gathered PAIR_CHUNK pairs at a time and added one by one
    in the pair order of _submask_pairs (module docstring).
    """
    s, l, sign = _submask_pairs(n)
    full = values.size - 1
    out = np.zeros(values.size, dtype=values.dtype)
    for start in range(0, s.size, PAIR_CHUNK):
        chunk = slice(start, start + PAIR_CHUNK)
        terms = values[full ^ l[chunk] if complement else l[chunk]]
        if signed:
            terms *= sign[chunk]
        np.add.at(out, s[chunk], terms)
    return out


def brute_and(u) -> np.ndarray:
    """Literal evaluation of I[T] = sum_{L subset T} (-1)^(|T|-|L|) u[L]."""
    arr = np.asarray(u, dtype=np.float64)
    return _pair_sums(arr, _check_size(arr), signed=True)


def brute_or(u) -> np.ndarray:
    """Literal evaluation of I[T] = -sum_{L subset T} (-1)^(|T|-|L|) u[N\\L]."""
    arr = np.asarray(u, dtype=np.float64)
    return -_pair_sums(arr, _check_size(arr), signed=True, complement=True)


def reconstruct(i_and, i_or, bias: float) -> np.ndarray:
    """Literal evaluation of the AND-OR logical model on every mask.

    h(x_S) = b + sum_{0 != T subset S} I_and[T] + sum_{T & S != 0} I_or[T],
    the OR sum evaluated as (total - sum over submasks of the complement).
    """
    ia = np.asarray(i_and, dtype=np.float64)
    io = np.asarray(i_or, dtype=np.float64)
    n = _check_size(ia)
    if ia.size != io.size:
        raise LatticeSizeError("AND and OR effect vectors must have equal length")
    size = ia.size
    # Both sums run over the same pairs: one pass over complex terms adds
    # the AND effects in the real parts and the OR effects in the imaginary
    # parts, each term by term, as a pass of its own would.
    terms = np.empty(size, dtype=np.complex128)
    terms.real = ia
    terms.real[0] = 0.0
    terms.imag = io
    sums = _pair_sums(terms, n, signed=False)
    and_sum = sums.real
    or_miss = sums.imag[(size - 1) ^ np.arange(size)]
    return float(bias) + and_sum + io.sum() - or_miss


def verify_matching(table, decomposition, interactions) -> float:
    """Max absolute error of the logical model against the denoised table.

    Exhaustive over all 2**n masks: checks h(x_S) = v(x_S) - delta_S by
    literal summation. Returns the error; never judges.
    """
    v = np.asarray(table.values, dtype=np.float64)
    _check_size(v)
    h = reconstruct(interactions.i_and, interactions.i_or, interactions.bias)
    target = v - np.asarray(decomposition.delta, dtype=np.float64)
    return float(np.max(np.abs(h - target)))


def conditioned_and(table, t_mask: int, i: int) -> float:
    """Effect of T with variable i held present:
    sum_{L subset T} (-1)^(|T|-|L|) v(x_{L union {i}}).
    """
    v = np.asarray(table.values, dtype=np.float64)
    _check_size(v)
    bit = 1 << (i - 1)
    if t_mask & bit:
        raise ValueError(f"variable {i} must not be a member of T")
    pt = int(t_mask).bit_count()
    acc = 0.0
    l = t_mask
    while True:
        sign = -1.0 if (pt - int(l).bit_count()) & 1 else 1.0
        acc += sign * v[l | bit]
        if l == 0:
            break
        l = (l - 1) & t_mask
    return acc
