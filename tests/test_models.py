import numpy as np
import pytest

from andor.lattice import mobius_and, mobius_or, order_counts
from andor.models import (GroundTruthGame, MaskingScheme, TinyNet, ValueTable,
                          inject_overfit, interaction_function_table,
                          net_value_table, realize_table, sample_sparse_game)


def test_value_table_validates_length():
    with pytest.raises(ValueError):
        ValueTable(n=3, values=np.zeros(4))


def test_value_table_rejects_nan():
    vals = np.zeros(8)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        ValueTable(n=3, values=vals)


def test_gap():
    v = ValueTable(n=2, values=np.array([1.0, 3.0, 0.0, -4.0]))
    assert v.gap() == 5.0


def test_game_rejects_empty_mask():
    with pytest.raises(ValueError):
        GroundTruthGame(n=3, and_effects={0: 1.0})


def test_masked_inputs_corners():
    scheme = MaskingScheme(sample=np.array([1.0, 2.0]), baseline=np.array([-1.0, -2.0]))
    grid = scheme.masked_inputs()
    np.testing.assert_array_equal(grid[0], [-1.0, -2.0])
    np.testing.assert_array_equal(grid[3], [1.0, 2.0])
    np.testing.assert_array_equal(grid[1], [1.0, -2.0])


def test_interaction_function_tables():
    v_and = interaction_function_table(0b011, 3.0, "and", 3)
    assert v_and.values.tolist() == [0, 0, 0, 3, 0, 0, 0, 3]
    v_or = interaction_function_table(0b011, 3.0, "or", 3)
    assert v_or.values.tolist() == [0, 3, 3, 3, 0, 3, 3, 3]


def test_realize_table_matches_transforms():
    game = GroundTruthGame(n=5, and_effects={0b00111: 2.0, 0b10000: -1.0},
                           or_effects={0b01100: 1.5}, bias=0.5)
    v = realize_table(game)
    i_and = mobius_and(v.values)
    # the OR effect leaks into the AND basis; check via the mixed identity
    # instead: subtracting the realized OR part leaves a pure AND table
    or_only = GroundTruthGame(n=5, or_effects={0b01100: 1.5})
    residual = v.values - realize_table(or_only).values
    i_res = mobius_and(residual)
    assert i_res[0] == pytest.approx(0.5)
    assert i_res[0b00111] == pytest.approx(2.0)
    assert i_res[0b10000] == pytest.approx(-1.0)
    assert np.count_nonzero(np.abs(i_res) > 1e-9) == 3
    i_or = mobius_or(realize_table(or_only).values)
    assert i_or[0b01100] == pytest.approx(1.5)


def test_sample_sparse_game_deterministic_and_sized():
    a = sample_sparse_game(8, 10, {2: 1.0}, 4.0, rng_seed=5)
    b = sample_sparse_game(8, 10, {2: 1.0}, 4.0, rng_seed=5)
    assert a.and_effects == b.and_effects and a.or_effects == b.or_effects
    assert len(a.and_effects) + len(a.or_effects) == 10
    orders = order_counts(8)
    for m in list(a.and_effects) + list(a.or_effects):
        assert orders[m] == 2


def test_sample_sparse_game_magnitude_floor():
    g = sample_sparse_game(8, 12, {2: 0.5, 3: 0.5}, 4.0, rng_seed=1,
                           magnitude_floor=3.0)
    for c in list(g.and_effects.values()) + list(g.or_effects.values()):
        assert 3.0 <= abs(c) <= 4.0


def test_sample_sparse_game_capacity_check():
    with pytest.raises(ValueError):
        sample_sparse_game(4, 100, {2: 1.0}, 4.0, rng_seed=0)


def test_sample_sparse_game_antichain():
    g = sample_sparse_game(10, 15, {2: 0.5, 3: 0.5}, 4.0, rng_seed=3,
                           antichain=True)
    masks = list(g.and_effects) + list(g.or_effects)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            assert a & b not in (a, b), f"nested masks {a:b} {b:b}"


def test_inject_overfit_adds_offsetting_pairs():
    base = sample_sparse_game(10, 8, {1: 1.0}, 4.0, rng_seed=2)
    injected = inject_overfit(base, high_order_min=7, pair_count=10,
                              magnitude=5.0, rng_seed=9)
    new = {m: c for m, c in injected.and_effects.items()
           if m not in base.and_effects}
    assert len(new) == 20
    assert sum(new.values()) == pytest.approx(0.0)
    orders = order_counts(10)
    assert all(orders[m] >= 7 for m in new)
    # offsetting pairs leave the full-mask output unchanged
    assert realize_table(injected).values[-1] == pytest.approx(
        realize_table(base).values[-1])


def test_tiny_net_table_is_finite_and_deterministic():
    net = TinyNet.random([4, 8, 2], rng_seed=0)
    scheme = MaskingScheme(sample=np.ones(4), baseline=np.zeros(4))
    v1 = net_value_table(net, scheme, class_index=0)
    v2 = net_value_table(net, scheme, class_index=0)
    np.testing.assert_array_equal(v1.values, v2.values)
    assert np.all(np.isfinite(v1.values))
    # the two class logits are negatives of each other
    v_other = net_value_table(net, scheme, class_index=1)
    np.testing.assert_allclose(v1.values, -v_other.values, atol=1e-9)
