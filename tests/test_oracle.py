import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from andor import oracle
from andor.extraction import all_and, even_split, sparsify
from andor.lattice import LatticeSizeError, mobius_and, mobius_or
from andor.models import ValueTable, interaction_function_table
from andor.oracle import (GATHER_SHARE, PAIR_CHUNK, _submask_pairs, brute_and,
                          brute_or, conditioned_and, reconstruct, verify_matching)


def test_brute_and_hand_example():
    assert brute_and([0, 1, 2, 5]).tolist() == [0, 1, 2, 2]


def test_brute_transforms_zero_table():
    z = np.zeros(16)
    assert not brute_and(z).any()
    assert not brute_or(z).any()


def test_brute_or_single_interaction():
    # the pure OR indicator of T recovers exactly c at T
    v = interaction_function_table(0b0110, c=2.5, kind="or", n=4)
    effects = brute_or(v.values)
    expected = np.zeros(16)
    expected[0b0110] = 2.5
    # the raw transform carries -v(x_N) on the empty slot; extraction zeroes
    # it and moves the bias out
    expected[0] = -2.5
    np.testing.assert_allclose(effects, expected, atol=1e-12)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_fast_transforms_match_brute_force(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        u = rng.normal(size=1 << n)
        np.testing.assert_allclose(mobius_and(u), brute_and(u), atol=1e-10)
        np.testing.assert_allclose(mobius_or(u), brute_or(u), atol=1e-10)


def one_shot(n, u, i_and, i_or, bias):
    """brute_and, brute_or and reconstruct, each as one np.bincount over a
    gather of all 3**n pair terms."""
    s, l, sign = _submask_pairs(n)
    size, full = 1 << n, (1 << n) - 1
    ia = i_and.copy()
    ia[0] = 0.0
    or_miss = np.bincount(s, weights=i_or[l], minlength=size)[full ^ np.arange(size)]
    return (np.bincount(s, weights=u[l] * sign, minlength=size),
            -np.bincount(s, weights=u[full ^ l] * sign, minlength=size),
            bias + np.bincount(s, weights=ia[l], minlength=size) + i_or.sum() - or_miss)


def effect_rows(kind, n, rng):
    """(i_and, i_or) of one test case: dense normal rows; "sparse", 15
    effects on random nonempty masks, each an AND or an OR effect;
    "last-block", one OR effect on the empty set, whose supersets are the
    last block of the pair table; "negative-zero", the sparse set with -0.0
    on 30 more slots, some of them beside a nonzero effect of the same L."""
    size = 1 << n
    if kind == "dense":
        return rng.normal(size=(2, size))
    rows = np.zeros((2, size))
    if kind == "last-block":
        rows[1, 0] = rng.normal()
        return rows
    masks = rng.choice(np.arange(1, size), size=15, replace=False)
    rows[rng.integers(0, 2, size=15), masks] = rng.normal(size=15)
    if kind == "negative-zero":
        rows[rng.integers(0, 2, size=30), rng.integers(0, size, size=30)] = -0.0
        rows[:, masks[:5]] = np.where(rows[:, masks[:5]] == 0, -0.0, rows[:, masks[:5]])
    return rows


CHUNKED_CASES = [
    (4, 7, "dense"), (4, PAIR_CHUNK, "dense"), (10, PAIR_CHUNK, "dense"),
    (12, PAIR_CHUNK, "dense"), (10, PAIR_CHUNK, "sparse"), (12, PAIR_CHUNK, "sparse"),
    (10, 100, "sparse"), (6, PAIR_CHUNK, "last-block"), (6, 50, "last-block"),
    (8, PAIR_CHUNK, "negative-zero"), (8, 5, "negative-zero")]


@pytest.mark.parametrize("n, chunk, kind", CHUNKED_CASES, ids=[
    f"{n}-{chunk}" + ("" if kind == "dense" else f"-{kind}") for n, chunk, kind in CHUNKED_CASES])
def test_chunked_sums_match_one_shot_evaluation(monkeypatch, n, chunk, kind):
    """Summed chunk by chunk, and in reconstruct over the blocks of the
    nonzero effects only, the oracle matches one sum over all pairs bit for
    bit. A chunk of 7 splits the n = 4 pairs unevenly; chunks of 100, 50 and
    5 split blocks (128 pairs per order-3 effect at n = 10)."""
    monkeypatch.setattr(oracle, "PAIR_CHUNK", chunk)
    rng = np.random.default_rng(100 + n)
    u = rng.normal(size=1 << n)
    i_and, i_or = effect_rows(kind, n, rng)
    got = (brute_and(u), brute_or(u), reconstruct(i_and, i_or, 0.25))
    for value, want in zip(got, one_shot(n, u, i_and, i_or, 0.25)):
        # term by term, in the same order: the same rounding, signed zeros too
        np.testing.assert_array_equal(value.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("kind, pairs", [
    ("sparse", None), ("last-block", 1 << 10), ("dense", 3 ** 10)])
def test_reconstruct_sums_only_the_pairs_of_nonzero_effects(monkeypatch, kind, pairs):
    """reconstruct sums the 2**(n - |L|) supersets of each L with a nonzero
    effect, and every pair of a dense set."""
    summed = []
    chunks = oracle._chunks

    def counting(n, keep):
        for chunk in chunks(n, keep):
            summed.append(np.arange(3 ** n)[chunk].size)
            yield chunk

    monkeypatch.setattr(oracle, "_chunks", counting)
    i_and, i_or = effect_rows(kind, 10, np.random.default_rng(10))
    reconstruct(i_and, i_or, 0.0)
    if pairs is None:
        kept = np.flatnonzero((i_and != 0) | (i_or != 0))
        pairs = int((1 << (10 - np.bitwise_count(kept))).sum())
    assert sum(summed) == pairs


@pytest.mark.parametrize("chunk", [1, 5, 4096])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(0, 8), share=st.sampled_from([0.0, 0.02, 0.1, 0.3, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=5, share=0.0, seed=0)
def test_chunks_index_the_kept_blocks_or_the_whole_table(chunk, n, share, seed):
    """The chunks, PAIR_CHUNK pairs each but the last, list the pairs of
    the kept blocks in table order when those hold at most GATHER_SHARE of
    the pairs, else every pair; an all-False keep yields no chunk."""
    keep = np.random.default_rng(seed).random(1 << n) < share
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "PAIR_CHUNK", chunk)
        chunks = [np.arange(3 ** n)[c] for c in oracle._chunks(n, keep)]
    width = oracle._blocks(n)[1]
    kept = np.flatnonzero(np.repeat(keep[::-1], width))
    want = kept if kept.size <= GATHER_SHARE * 3 ** n else np.arange(3 ** n)
    assert [c.size for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
    assert keep.any() or chunks == []
    assert np.array_equal(np.concatenate([np.empty(0, int), *chunks]), want)


def test_reconstruct_at_n12_allocates_chunks_not_pair_arrays():
    """One reconstruct at n = 12 (pair list cached) peaks below 1 MiB; a
    gather of all 3**12 terms alone takes 4.25 MB."""
    i_and, i_or = np.random.default_rng(112).normal(size=(2, 1 << 12))
    reconstruct(i_and, i_or, 0.0)
    tracemalloc.start()
    try:
        reconstruct(i_and, i_or, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gathered_reconstruct_at_n12_stays_below_one_mib():
    """A sparse n = 12 set, 15 order-3 effects, is gathered, not walked:
    its 15 * 2**9 kept pairs are indexed at once, and the peak stays below
    the walked dense set's bound."""
    rng = np.random.default_rng(212)
    order3 = [m for m in range(1 << 12) if m.bit_count() == 3]
    masks = rng.choice(order3, size=15, replace=False)
    rows = np.zeros((2, 1 << 12))
    rows[rng.integers(0, 2, size=15), masks] = rng.normal(size=15)
    assert 15 * 2 ** 9 <= GATHER_SHARE * 3 ** 12
    reconstruct(*rows, 0.0)
    tracemalloc.start()
    try:
        reconstruct(*rows, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_size_cap():
    built = _submask_pairs.cache_info().misses
    big = np.zeros(1 << 15)
    with pytest.raises(LatticeSizeError):
        brute_and(big)
    with pytest.raises(LatticeSizeError):
        brute_or(big)
    with pytest.raises(LatticeSizeError):
        reconstruct(big, big, 0.0)
    # the cap is checked before any submask-pair list is built
    assert _submask_pairs.cache_info().misses == built


def test_reconstruct_empty_game_is_bias():
    size = 1 << 5
    np.testing.assert_array_equal(reconstruct(np.zeros(size), np.zeros(size), 7.0),
                                  np.full(size, 7.0))


def test_reconstruct_hand_example():
    # n=3, bias 1, AND effect 2 on {1,2}, OR effect 3 on {2,3}:
    # h(S) = 1 + 2*[{1,2} subset S] + 3*[S meets {2,3}]
    i_and = np.zeros(8)
    i_or = np.zeros(8)
    i_and[0b011] = 2.0
    i_or[0b110] = 3.0
    expected = [1.0, 1.0, 4.0, 6.0, 4.0, 4.0, 4.0, 6.0]
    assert reconstruct(i_and, i_or, 1.0).tolist() == expected
    # the empty-set slots carry no effect in either sum
    i_and[0] = 5.0
    i_or[0] = -7.0
    assert reconstruct(i_and, i_or, 1.0).tolist() == expected


def test_oracle_matches_definitions_by_loop():
    n = 5
    size = 1 << n
    full = size - 1
    rng = np.random.default_rng(5)
    u, i_and, i_or = rng.normal(size=(3, size))

    def sub(a, b):
        return a & ~b == 0

    def sign(t, l):
        return -1.0 if (t.bit_count() - l.bit_count()) & 1 else 1.0

    want_and = [sum(sign(t, l) * u[l] for l in range(size) if sub(l, t))
                for t in range(size)]
    want_or = [-sum(sign(t, l) * u[full ^ l] for l in range(size) if sub(l, t))
               for t in range(size)]
    want_h = [0.5 + sum(i_and[t] for t in range(1, size) if sub(t, s))
              + sum(i_or[t] for t in range(size) if t & s) for s in range(size)]
    np.testing.assert_allclose(brute_and(u), want_and, rtol=0, atol=1e-12)
    np.testing.assert_allclose(brute_or(u), want_or, rtol=0, atol=1e-12)
    np.testing.assert_allclose(reconstruct(i_and, i_or, 0.5), want_h, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["all-and", "even-split", "sparsify"])
def test_verify_matching_all_modes(mode):
    rng = np.random.default_rng(11)
    v = ValueTable(n=6, values=rng.normal(size=64))
    scale = max(1.0, float(np.max(np.abs(v.values))))
    if mode == "all-and":
        iset, delta = all_and(v), 0.0
    elif mode == "even-split":
        iset, delta = even_split(v), 0.0
    else:
        result = sparsify(v, denoise=True)
        assert result.solver == "lp"
        iset, delta = result.interactions, result.delta
    assert verify_matching(v, iset, delta) <= 1e-8 * scale
    if mode == "sparsify":
        # denoised effects rebuild v - delta, not v: checked against
        # delta = 0 they miss by max|delta|
        max_delta = float(np.max(np.abs(delta)))
        assert max_delta > 0.0
        assert verify_matching(v, iset, 0.0) >= max_delta - 1e-12


def test_verify_matching_detects_perturbation():
    rng = np.random.default_rng(12)
    v = ValueTable(n=5, values=rng.normal(size=32))
    iset = all_and(v)
    iset.i_and[7] += 1e-3
    assert verify_matching(v, iset, 0.0) >= 1e-3 * (1 - 1e-9)


def test_conditioned_and_hand_example():
    # n=2, T={1}, i=2 on [0,1,2,5]: v({1,2}) - v({2}) = 3
    v = ValueTable(n=2, values=np.array([0.0, 1.0, 2.0, 5.0]))
    assert conditioned_and(v, 0b01, 2) == pytest.approx(3.0)
    # recursive step: I[{1,2}] = 3 - I[{1}] = 2
    assert conditioned_and(v, 0b01, 2) - mobius_and(v.values)[0b01] == pytest.approx(2.0)


def test_conditioned_and_empty_t():
    v = ValueTable(n=2, values=np.array([0.0, 1.0, 2.0, 5.0]))
    assert conditioned_and(v, 0, 1) == pytest.approx(1.0)


def test_conditioned_and_rejects_member():
    v = ValueTable(n=2, values=np.zeros(4))
    with pytest.raises(ValueError):
        conditioned_and(v, 0b01, 1)
