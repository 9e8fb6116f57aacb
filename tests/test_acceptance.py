"""Acceptance suite: one test per top-level criterion, run with pytest -v.

Each test prints a single summary line. The module-scoped warmup fixture runs
every timed code path once on a 16-entry table before the timed regions, so
first-call setup, such as filling the oracle's per-n submask-pair cache, is
paid up front for that size.
"""

import math
import time

import numpy as np
import pytest

from andor.analysis import axiom_suite, compare_models, kappa_fit, sample_report
from andor.cli import main as cli_main
from andor.extraction import ZETA_FRACTION, all_and, even_split, salience_threshold, sparsify
from andor.lattice import (mobius_and, mobius_or, order_counts, table_size,
                           zeta_subsets)
from andor.metrics import per_order_jaccard
from andor.models import (GroundTruthGame, ValueTable, inject_overfit,
                          realize_table, sample_sparse_game)
from andor.oracle import brute_and, brute_or, verify_matching


@pytest.fixture(scope="module", autouse=True)
def warmup():
    """Run each timed code path once, warming per-n caches, before any timed region."""
    u = np.arange(16, dtype=np.float64)
    brute_and(u)
    brute_or(u)
    mobius_and(u)
    v = ValueTable(n=4, values=u)
    verify_matching(v, all_and(v), 0.0)
    sparsify(v)


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def recovery_game(seed: int):
    """Criterion-4 family: n=10, 15 order-3 effects on an antichain support,
    all magnitudes >= 10 tau, with tau also bounded below so the salient mass
    count keeps the sparsity exponent above 0.5."""
    for attempt in range(400):
        game = sample_sparse_game(10, 15, {3: 1.0}, effect_range=4.0,
                                  rng_seed=seed * 1000 + attempt,
                                  magnitude_floor=3.2, antichain=True)
        v = realize_table(game, label=f"game_{seed}")
        tau = 0.02 * v.gap()
        mags = [abs(c) for c in list(game.and_effects.values())
                + list(game.or_effects.values())]
        if 10 * tau <= min(mags) and 14 * tau >= math.sqrt(10):
            return game, v, tau
    raise RuntimeError(f"no acceptable game for seed {seed}")


# --- criterion 1: universal matching over every decomposition mode ----------

def test_criterion_1_universal_matching(huber_max_iters):
    huber_max_iters(7)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for n, count in ((10, 100), (12, 20)):
        rng = np.random.default_rng(n)
        for i in range(count):
            v = ValueTable(n=n, values=rng.normal(size=table_size(n)))
            scale = max(1.0, float(np.max(np.abs(v.values))))
            checks = [(all_and(v), 0.0), (even_split(v), 0.0)]
            if i < 5:  # sparsified modes, with and without denoising
                for denoise in (True, False):
                    result = sparsify(v, denoise)
                    zeta = ZETA_FRACTION * v.gap() if denoise else 0.0
                    in_box = (result.delta[0] == 0.0 and np.max(np.abs(result.delta))
                              <= zeta + 1e-12 * max(1.0, zeta))
                    assert in_box, f"n={n} table {i}: delta outside its box"
                    checks.append((result.interactions, result.delta))
            for iset, delta in checks:
                err = verify_matching(v, iset, delta) / scale
                worst = max(worst, err)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, ok, f"{checked} decompositions, max rel error {worst:.2e}, "
                   f"{elapsed:.1f}s (budget 10s)")


# --- criterion 2: oracle equivalence of the fast transforms ------------------

def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    plan = ((4, 150), (6, 150), (8, 100), (10, 80), (12, 20))
    worst = 0.0
    total = 0
    for n, count in plan:
        size = table_size(n)
        idx = np.arange(size, dtype=np.uint32)
        # literal subset-sum matrix, independent of the fast kernels
        subset = ((idx[None, :] & ~idx[:, None]) == 0).astype(np.float64)
        rng = np.random.default_rng(n)
        for _ in range(count):
            u = rng.normal(size=size)
            worst = max(worst,
                        float(np.max(np.abs(mobius_and(u) - brute_and(u)))),
                        float(np.max(np.abs(mobius_or(u) - brute_or(u)))),
                        float(np.max(np.abs(zeta_subsets(u) - subset @ u))))
            total += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0 and total == 500
    _report(2, ok, f"{total} tables, max abs error {worst:.2e}, "
                   f"{elapsed:.1f}s (budget 60s)")


# --- criterion 3: the seven axioms, three master seeds ------------------------

def test_criterion_3_axiom_suite():
    t0 = time.perf_counter()
    failures = []
    for seed in (101, 202, 303):
        for n in (4, 6, 8):
            for r in axiom_suite(n, trials=200, rng_seed=seed):
                if not r.passed:
                    failures.append((seed, n, r.name, r.max_error))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(3, ok, f"7 axioms x n in (4,6,8) x 3 seeds, failures={failures}, "
                   f"{elapsed:.1f}s (budget 60s)")


# --- criteria 4 + 5: sparse support recovery and the sparsity exponent -------

@pytest.fixture(scope="module")
def recovery_runs():
    t0 = time.perf_counter()
    runs = []
    for seed in range(50):
        game, v, tau = recovery_game(seed)
        iset = sparsify(v, denoise=False).interactions
        salient = iset.support(tau)
        runs.append({
            "exact": salient == game.support(),
            "bounded": iset.total_l1() <= all_and(v).total_l1() + 1e-9,
            "kappa": kappa_fit(len(salient), tau, 10),
        })
    return runs, time.perf_counter() - t0


def test_criterion_4_sparse_recovery(recovery_runs):
    runs, elapsed = recovery_runs
    exact = sum(r["exact"] for r in runs)
    bounded = all(r["bounded"] for r in runs)
    ok = exact >= 45 and bounded and elapsed < 300.0
    _report(4, ok, f"exact support {exact}/50 (need 45), "
                   f"loss <= all-AND on every seed: {bounded}, "
                   f"{elapsed:.0f}s (budget 300s)")


def test_criterion_5_kappa_band(recovery_runs):
    runs, _ = recovery_runs
    kappas = [r["kappa"] for r in runs]
    ok = all(0.5 <= k <= 1.5 for k in kappas)
    _report(5, ok, f"kappa range [{min(kappas):.3f}, {max(kappas):.3f}] "
                   f"within [0.5, 1.5]")


# --- criterion 6: confusing-sample pipeline ----------------------------------

def test_criterion_6_confusing_samples():
    t0 = time.perf_counter()
    all_ok = True
    details = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        injected = set(rng.choice(100, size=20, replace=False).tolist())
        tables, games = [], []
        for i in range(100):
            game = sample_sparse_game(10, 10, {1: 0.3, 2: 0.4, 3: 0.3},
                                      effect_range=4.0, rng_seed=seed * 7919 + i,
                                      magnitude_floor=2.0, kinds=("and",))
            if i in injected:
                game = inject_overfit(game, high_order_min=7, pair_count=10,
                                      magnitude=5.0, rng_seed=seed * 7919 + i)
            games.append(game)
            tables.append(realize_table(game, label=f"s{i:03d}"))
        tau = salience_threshold(tables)
        assert 10 * tau <= 5.0, "injected magnitude must stay >= 10 tau"
        flagged = set()
        for i, v in enumerate(tables):
            iset = all_and(v)
            if sample_report(iset, tau, theta=5.0).confusing:
                flagged.add(i)
        all_ok &= flagged == injected
        details.append(f"seed {seed}: flagged {len(flagged & injected)}/20, "
                       f"spurious {len(flagged - injected)}")
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 120.0
    _report(6, ok, "; ".join(details) + f"; {elapsed:.0f}s (budget 120s)")


# --- criterion 7: similarity decays with order -------------------------------

def _population(n, shared, pool, rng):
    """AND-only games: identical low-order part, high-order from a mask pool."""
    sets = []
    for j in range(10):
        effects = dict(shared[j])
        picks = rng.choice(len(pool), size=3, replace=False)
        for p in picks:
            effects[pool[p]] = float(rng.uniform(2.0, 4.0) * rng.choice([-1, 1]))
        game = GroundTruthGame(n=n, and_effects=effects)
        v = realize_table(game, label=f"p{j}")
        sets.append(all_and(v))
    return sets


def test_criterion_7_similarity_trend():
    n = 10
    masks = np.arange(table_size(n))
    orders = order_counts(n)
    high = [int(m) for m in masks[orders >= 5]]
    ok = True
    details = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        shared = []
        for _ in range(10):
            eff = {}
            for order in (1, 1, 2, 2):
                pool = masks[orders == order]
                eff[int(rng.choice(pool))] = float(rng.uniform(2.0, 4.0))
            shared.append(eff)
        half = len(high) // 2
        perm = rng.permutation(len(high))
        pool_a = [high[i] for i in perm[:half]]
        pool_b = [high[i] for i in perm[half:]]
        train = _population(n, shared, pool_a, rng)
        test = _population(n, shared, pool_b, rng)
        # tiny tau drops float dust from the exact transforms (real effects >= 2)
        rep = per_order_jaccard(train, test, tau=1e-9)
        sims = [(k, rep.sim_per_order[k - 1]) for k in rep.defined_orders()]
        non_increasing = all(b[1] <= a[1] + 1e-12 for a, b in zip(sims, sims[1:]))
        low = rep.sim_per_order[0]
        high_sims = [s for k, s in sims if k >= 5]
        ok &= non_increasing and low >= 0.9 and all(s <= 0.2 for s in high_sims)
        details.append(f"seed {seed}: sim(1)={low:.2f}, "
                       f"max sim(k>=5)={max(high_sims):.2f}, "
                       f"monotone={non_increasing}")
    _report(7, ok, "; ".join(details))


# --- criterion 8: comparison statistics ---------------------------------------

def test_criterion_8_comparison_statistics():
    def population(master_seed):
        reports = []
        for i in range(40):
            game = sample_sparse_game(10, 8,
                                      {1: 0.25, 2: 0.25, 7: 0.25, 8: 0.25},
                                      effect_range=4.0,
                                      rng_seed=master_seed * 5077 + i,
                                      magnitude_floor=2.0)
            v = realize_table(game, label=f"s{i:03d}")
            iset = all_and(v)
            reports.append(sample_report(iset, tau=0.0, theta=5.0))
        return reports

    r = population(1)
    identity = compare_models(r, r)
    exact = (identity.rank_correlation == 1.0
             and identity.mean_abs_diagonal_gap == 0.0
             and identity.overlap == 1.0)
    other = compare_models(r, population(2))
    ok = exact and other.overlap < 0.5
    _report(8, ok, f"identity=({identity.rank_correlation}, "
                   f"{identity.mean_abs_diagonal_gap}, {identity.overlap}), "
                   f"independent overlap {other.overlap:.2f} < 0.5")


# --- criterion 9: CLI determinism and pinned schemas -------------------------

def test_criterion_9_cli_determinism(tmp_path):
    def run_all(root):
        root.mkdir()
        argsets = [
            ["synth", "--out", root / "tabs", "--n", "6", "--samples", "4",
             "--m", "5", "--orders", "2:0.6,3:0.4", "--seed", "17"],
            ["extract", "--in", root / "tabs", "--out", root / "isets",
             "--mode", "sparsify"],
            ["profile", "--in", root / "isets", "--out", root / "profile.csv",
             "--tau-absolute", "0.05"],
            ["similarity", "--train", root / "isets", "--test", root / "isets",
             "--out", root / "similarity.csv"],
            ["compare", "--a", root / "isets", "--b", root / "isets",
             "--out", root / "compare.csv", "--tau-absolute", "0.05"],
        ]
        for argv in argsets:
            assert cli_main([str(a) for a in argv]) == 0

    run_all(tmp_path / "run1")
    run_all(tmp_path / "run2")
    mismatches = []
    for f1 in sorted((tmp_path / "run1").rglob("*")):
        if f1.is_dir():
            continue
        f2 = tmp_path / "run2" / f1.relative_to(tmp_path / "run1")
        if f1.read_bytes() != f2.read_bytes():
            mismatches.append(str(f1.name))
    headers = {
        "profile.csv": "sample_label,k,j_pos,j_neg,offset_mass",
        "similarity.csv": "k,sim",
        "compare.csv": "sample_label,eta_a,eta_b",
    }
    schema_ok = all(
        (tmp_path / "run1" / name).read_text().splitlines()[0] == header
        for name, header in headers.items())
    ok = not mismatches and schema_ok
    _report(9, ok, f"byte-identical reruns (mismatches={mismatches}), "
                   f"schemas pinned: {schema_ok}")
