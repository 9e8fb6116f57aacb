import numpy as np
import pytest

from andor.extraction import InteractionSet
from andor.metrics import (average_order, is_undefined, jaccard,
                           mean_distribution, order_profile, per_order_jaccard)


def iset(n, and_effects=None, or_effects=None, label=""):
    i_and = np.zeros(1 << n)
    i_or = np.zeros(1 << n)
    for m, c in (and_effects or {}).items():
        i_and[m] = c
    for m, c in (or_effects or {}).items():
        i_or[m] = c
    return InteractionSet(n=n, effects=np.stack([i_and, i_or]), bias=0.0, label=label)


def test_order_profile_single_effect():
    p = order_profile(iset(5, {0b00111: 2.5}))
    assert p.j_pos.tolist() == [0, 0, 2.5, 0, 0]
    assert not p.j_neg.any()
    assert p.salient_count == 1


def test_order_profile_pos_neg_split():
    p = order_profile(iset(5, {0b00011: 2.0}, {0b00110: -5.0}))
    assert p.j_pos[1] == 2.0
    assert p.j_neg[1] == 5.0


def test_order_profile_salience_filter():
    p = order_profile(iset(5, {0b00011: 2.0, 0b00101: 0.1}), tau=0.5)
    assert p.salient_count == 1
    assert p.total_strength() == pytest.approx(2.0)
    with pytest.raises(ValueError):
        order_profile(iset(5), tau=-1.0)


def test_profile_total_equals_l1():
    rng = np.random.default_rng(3)
    s = iset(4)
    s.i_and[1:] = rng.normal(size=15)
    s.i_or[1:] = rng.normal(size=15)
    p = order_profile(s)
    assert p.total_strength() == pytest.approx(s.total_l1())


def test_average_order_single_atom():
    assert average_order(order_profile(iset(6, {0b111000: 1.0}))) == 3.0


def test_average_order_symmetric_mean():
    p = order_profile(iset(4, {0b0001: 1.0, 0b0111: 1.0}))
    assert average_order(p) == pytest.approx(2.0)


def test_average_order_undefined_on_empty():
    assert is_undefined(average_order(order_profile(iset(4))))


def test_average_order_scale_invariant():
    a = order_profile(iset(4, {0b0011: 2.0, 0b0111: -1.0}))
    b = order_profile(iset(4, {0b0011: 20.0, 0b0111: -10.0}))
    assert average_order(a) == pytest.approx(average_order(b))


def nonzero(row):
    return {int(m): float(row[m]) for m in np.flatnonzero(row)}


def test_mean_distribution_single_sample():
    d = mean_distribution([iset(4, {0b0011: 2.0}, {0b0100: -1.0})])
    assert d.shape == (2, 16)
    assert nonzero(d[0]) == {0b0011: 2.0}
    assert nonzero(d[1]) == {0b0100: -1.0}


def test_mean_distribution_cancellation():
    d = mean_distribution([iset(4, {0b0011: 2.0}), iset(4, {0b0011: -2.0})])
    assert np.abs(d).sum() == 0.0


def test_mean_distribution_disjoint_union():
    sets = [iset(4, {0b0001: 3.0}), iset(4, {0b0010: 3.0}), iset(4, {0b0100: 3.0})]
    d = mean_distribution(sets)
    assert nonzero(d[0]) == {1: 1.0, 2: 1.0, 4: 1.0}
    assert not d[1].any()


def test_mean_distribution_rejects_mixed_n():
    with pytest.raises(ValueError):
        mean_distribution([iset(4), iset(5)])


def test_jaccard_identity_and_disjoint():
    d = mean_distribution([iset(4, {0b0011: 2.0})])
    assert jaccard(d, d) == 1.0
    e = mean_distribution([iset(4, {0b0101: 2.0})])
    assert jaccard(d, e) == 0.0


def test_jaccard_hand_value():
    # slots (1, 2, 4) with masses [1, 0, 2] vs [0.5, 0, 2] -> 2.5 / 3
    d1 = mean_distribution([iset(4, {1: 1.0, 4: 2.0})])
    d2 = mean_distribution([iset(4, {1: 0.5, 4: 2.0})])
    assert jaccard(d1, d2) == pytest.approx(2.5 / 3.0)


def test_jaccard_scale_covariance():
    d1 = mean_distribution([iset(4, {1: 1.0, 4: 2.0})])
    d2 = mean_distribution([iset(4, {1: 0.5, 2: 1.0})])
    d1s = mean_distribution([iset(4, {1: 3.0, 4: 6.0})])
    d2s = mean_distribution([iset(4, {1: 1.5, 2: 3.0})])
    assert jaccard(d1, d2) == pytest.approx(jaccard(d1s, d2s))


def test_jaccard_undefined_both_zero():
    z = mean_distribution([iset(4)])
    assert is_undefined(jaccard(z, z))


def test_per_order_jaccard_identity():
    sets = [iset(4, {0b0011: 2.0}, {0b0111: 1.0})]
    rep = per_order_jaccard(sets, sets)
    assert rep.sim_global == 1.0
    for k in rep.defined_orders():
        assert rep.sim_per_order[k - 1] == 1.0


def test_per_order_jaccard_shared_low_disjoint_high():
    a = [iset(6, {0b000001: 1.0, 0b000111: 2.0})]
    b = [iset(6, {0b000001: 1.0, 0b111000: 2.0})]
    rep = per_order_jaccard(a, b)
    assert rep.sim_per_order[0] == 1.0
    assert rep.sim_per_order[2] == 0.0
    assert 2 not in rep.defined_orders()


def test_per_order_jaccard_salience_filter():
    a = [iset(4, {0b0011: 2.0, 0b0101: 0.01})]
    b = [iset(4, {0b0011: 2.0})]
    rep = per_order_jaccard(a, b, tau=0.1)
    assert rep.sim_per_order[1] == 1.0


def reference_jaccard(sets_a, sets_b, tau):
    """Per-slot double loop: mean over samples of each salient effect, split
    into positive and negative mass, then min/max sums per order."""
    n = sets_a[0].n
    lo = [0.0] * (n + 1)
    hi = [0.0] * (n + 1)
    for kind in ("i_and", "i_or"):
        for m in range(1, 1 << n):
            means = []
            for sets in (sets_a, sets_b):
                vals = [getattr(s, kind)[m] for s in sets]
                means.append(sum(x if abs(x) > tau else 0.0 for x in vals) / len(vals))
            for sign in (1.0, -1.0):
                x, y = max(sign * means[0], 0.0), max(sign * means[1], 0.0)
                lo[m.bit_count()] += min(x, y)
                hi[m.bit_count()] += max(x, y)
    ratio = [lo[k] / hi[k] if hi[k] > 0.0 else None for k in range(n + 1)]
    return sum(lo) / sum(hi), ratio[1:]


def random_sets(rng, count, n=5):
    out = []
    for _ in range(count):
        s = iset(n)
        for row in (s.i_and, s.i_or):
            support = rng.random(1 << n) < 0.3
            row[support] = rng.normal(size=int(support.sum()))
            row[0] = 0.0
        out.append(s)
    return out


@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_jaccard_matches_per_slot_reference(tau):
    rng = np.random.default_rng(17)
    sets_a = random_sets(rng, 3)
    sets_b = random_sets(rng, 5)
    # order 5 has one AND and one OR slot; left empty, it must stay undefined
    for s in sets_a + sets_b:
        s.i_and[-1] = s.i_or[-1] = 0.0
    sim_global, sim_per_order = reference_jaccard(sets_a, sets_b, tau)
    rep = per_order_jaccard(sets_a, sets_b, tau=tau)
    assert rep.sim_global == pytest.approx(sim_global, rel=1e-12)
    assert sim_per_order[-1] is None
    for k, want in enumerate(sim_per_order, start=1):
        if want is None:
            assert is_undefined(rep.sim_per_order[k - 1])
        else:
            assert rep.sim_per_order[k - 1] == pytest.approx(want, rel=1e-12)
    if tau == 0.0:
        assert jaccard(mean_distribution(sets_a), mean_distribution(sets_b)) == \
            pytest.approx(sim_global, rel=1e-12)
