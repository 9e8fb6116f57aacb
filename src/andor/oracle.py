"""Brute-force reference implementations for differential testing.

Every function here evaluates its defining sum literally and shares no code
with the fast transforms in ``lattice``. The sums run over every pair
``(S, L)`` with ``L`` a submask of ``S``: ``_submask_pairs`` lists those 3**n
pairs once per n, with the sign ``(-1)**(|S|-|L|)``, grouped by ``L`` in
descending ``L`` order, so the supersets of each ``L`` lie in one block of
the table, found by its offset in ``_blocks``. ``_pair_sums`` adds each
pair's term into its ``S`` slot, one term at a time in the table order, so
each ``S`` receives its terms in descending ``L`` order. No partial sums
are shared between masks, unlike the O(n * 2**n) fast transforms these
paths certify.

``_pair_sums`` gathers the terms PAIR_CHUNK pairs at a time, not all 3**n at
once. One gather of all of them allocates a float64 array of 3**n entries
per sum, 472 KB at n = 10 and 4.25 MB at n = 12. Arrays that large lie
above glibc's mmap threshold (128 KB until the process frees a larger
mapped block), so each is mapped afresh and page-faults on first touch:
about 370 minor faults per ``oracle verify`` of an n = 10 table. A chunk's
terms take at most 64 KB, which the heap reuses. ``np.add.at`` adds term by
term, in the order and with the rounding of one ``np.bincount`` over all
the pairs, so the results are bit-identical to the unchunked sums.

``brute_and`` and ``brute_or`` walk the whole table. ``reconstruct`` runs
its AND and OR sums as one pass over complex terms, and gathers only the
blocks of the ``L`` whose AND or OR effect is nonzero, so its cost follows
the supersets of the nonzero effects: 15 order-3 effects at n = 10 take
15 * 2**7 = 1920 of the 59049 pairs. It indexes the kept pairs once, in one
int32 array of at most GATHER_SHARE * 3**n entries (4.8 MB at n = 14,
beside the 43 MB pair table). A gathered pair costs more than a walked one
(two more index gathers, and adds that jump about), so where the kept
blocks hold more than GATHER_SHARE of the pairs it walks the whole table
instead: on random sets at n = 8 and 10, gathering broke even at about
half of the pairs. Denoised n = 8 net files keep 42-64% of the pairs, and
dense files all but the empty set's block, so both walk.
A skipped term is +0.0 or -0.0. Adding either to a partial sum that starts
at +0.0 leaves it as it was, since such a sum is never -0.0, so skipping
changes no bit of the result.
"""

from functools import cache

import numpy as np

from .lattice import LatticeSizeError, infer_n

# Pairs per chunk of _pair_sums: 32 KB of float64 terms, 64 KB of complex.
PAIR_CHUNK = 4096
# The largest share of the pairs that _pair_sums gathers block by block
# rather than walking the whole table (module docstring).
GATHER_SHARE = 0.25


@cache
def _submask_pairs(n: int):
    """All 3**n pairs (S, L subset S) as read-only (s, l, sign) arrays,
    grouped by L in descending L order, each block in ascending S order.

    Built one variable at a time, each new one above the ones before: the
    blocks of the L that hold it (the old blocks, with it added to S and L)
    come first, then each old block twice, without it and with it added to
    S. So the L of each S appear in descending order, the order of the usual
    ``l = (l - 1) & s`` submask walk, and the sums accumulate term by term
    in that order. The table takes 9 bytes per pair (int32 s and l, int8
    sign): 0.5 MB at n = 10, 4.6 MB at n = 12 and 43 MB at n = 14, where
    building it peaks at about 55 MB (tracemalloc).
    """
    s = np.zeros(1, dtype=np.int32)
    sign = np.ones(1, dtype=np.int8)
    for i in range(n):
        bit = np.int32(1 << i)
        p = s.size
        old_s, s = s, np.empty(3 * p, dtype=np.int32)
        old_sign, sign = sign, np.empty(3 * p, dtype=np.int8)
        np.bitwise_or(old_s, bit, out=s[:p])
        sign[:p] = old_sign
        # old pair k of the block that starts at b goes to p + b + k, and
        # its copy with the bit in S one block width further
        start, width = _blocks(i)
        at = np.repeat(start[:-1] + p, width)
        at += np.arange(p, dtype=np.int32)
        s[at] = old_s
        sign[at] = old_sign
        at += np.repeat(width, width)
        s[at] = old_s | bit
        sign[at] = -old_sign
    l = np.repeat(np.arange((1 << n) - 1, -1, -1, dtype=np.int32), _blocks(n)[1])
    for a in (s, l, sign):
        a.setflags(write=False)
    return s, l, sign


@cache
def _blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (start, width) of the blocks of _submask_pairs(n), in table
    order: the supersets of L are the width[k] = 2**(n - |L|) pairs from
    start[k] on, k = 2**n - 1 - L; start has a last entry, 3**n."""
    width = np.ones(1, dtype=np.int32)
    for _ in range(n):
        width = np.concatenate((width, 2 * width))
    start = np.zeros(width.size + 1, dtype=np.int32)
    np.cumsum(width, out=start[1:])
    for a in (start, width):
        a.setflags(write=False)
    return start, width


def _chunks(n: int, keep: np.ndarray | None):
    """Index the pair table PAIR_CHUNK pairs at a time, in table order: only
    the blocks of the L where keep[L] is True, by one index array, when they
    hold at most GATHER_SHARE of the pairs, else all of it, as slices."""
    start, width = _blocks(n)
    if keep is None or np.dot(width, keep[::-1]) > GATHER_SHARE * 3 ** n:
        yield from (slice(c, c + PAIR_CHUNK) for c in range(0, 3 ** n, PAIR_CHUNK))
        return
    # each kept block's start, less the kept pairs before it, repeated over
    # its width, plus a running count of the kept pairs
    kept = keep[::-1]
    w = width[kept]
    index = np.repeat(start[:-1][kept] - np.cumsum(w, dtype=np.int32) + w, w)
    index += np.arange(index.size, dtype=np.int32)
    yield from (index[c:c + PAIR_CHUNK] for c in range(0, index.size, PAIR_CHUNK))


def _pair_sums(values: np.ndarray, n: int, signed: bool,
               keep: np.ndarray | None = None) -> np.ndarray:
    """out[S] = sum over L subset S of values[L], times (-1)^(|S|-|L|) when
    signed. Where keep is given, the terms of the L where keep[L] is False
    must be +0.0 or -0.0, and they may be skipped (module docstring).

    The terms are gathered PAIR_CHUNK pairs at a time and added one by one
    in the pair order of _submask_pairs (module docstring).
    """
    s, l, sign = _submask_pairs(n)
    out = np.zeros(values.size, dtype=values.dtype)
    for chunk in _chunks(n, keep):
        terms = values[l[chunk]]
        if signed:
            terms *= sign[chunk]
        np.add.at(out, s[chunk], terms)
    return out


def brute_and(u) -> np.ndarray:
    """Literal evaluation of I[T] = sum_{L subset T} (-1)^(|T|-|L|) u[L]."""
    arr = np.asarray(u, dtype=np.float64)
    return _pair_sums(arr, infer_n(arr), signed=True)


def brute_or(u) -> np.ndarray:
    """Literal evaluation of I[T] = -sum_{L subset T} (-1)^(|T|-|L|) u[N\\L]."""
    arr = np.asarray(u, dtype=np.float64)
    # u[N\L] is the reversed table's entry at L
    return -_pair_sums(arr[::-1], infer_n(arr), signed=True)


def reconstruct(i_and, i_or, bias: float) -> np.ndarray:
    """Literal evaluation of the AND-OR logical model on every mask.

    h(x_S) = b + sum_{0 != T subset S} I_and[T] + sum_{T & S != 0} I_or[T],
    the OR sum evaluated as (total - sum over submasks of the complement).
    Where the nonzero effects have few supersets, only their pairs are
    summed (module docstring).
    """
    ia = np.asarray(i_and, dtype=np.float64)
    io = np.asarray(i_or, dtype=np.float64)
    n = infer_n(ia)
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
    sums = _pair_sums(terms, n, signed=False, keep=terms != 0)
    and_sum = sums.real
    or_miss = sums.imag[(size - 1) ^ np.arange(size)]
    return float(bias) + and_sum + io.sum() - or_miss


def verify_matching(table, interactions, delta) -> float:
    """Max absolute error of the logical model against the denoised table.

    Exhaustive over all 2**n masks: checks h(x_S) = v(x_S) - delta_S by
    literal summation, delta an array of the table's shape or a scalar
    (0.0 for an extraction that does not denoise). Returns the error;
    never judges.
    """
    v = np.asarray(table.values, dtype=np.float64)
    infer_n(v)
    h = reconstruct(interactions.i_and, interactions.i_or, interactions.bias)
    target = v - np.asarray(delta, dtype=np.float64)
    return float(np.max(np.abs(h - target)))


def conditioned_and(table, t_mask: int, i: int) -> float:
    """Effect of T with variable i held present:
    sum_{L subset T} (-1)^(|T|-|L|) v(x_{L union {i}}).
    """
    v = np.asarray(table.values, dtype=np.float64)
    infer_n(v)
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
