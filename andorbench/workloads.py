"""The benchmark's workloads: inputs on disk, one round of CLI work, checks.

A round drives ``andor.cli.main`` the way a user does: one ``extract`` per
table, and passes over two cheap steps, ``profile``, ``similarity`` and
``compare`` on each population's output directory, and one
``oracle verify`` per written sample. Every round of a run repeats the same
operations on the same inputs.

The andor functions used to make inputs are called as module attributes
(``models.realize_table``), so the tracer sees them.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from andor import io as aio
from andor import models

SPARSE = "sparse-recovery-n10"
TWO_NETS = "two-nets-denoise-n8"

# The nets are fixed models under study; --seed draws the samples they score.
NET_HIDDEN = (32, 32)
NET_SEED = 2502


@dataclass(frozen=True)
class Spec:
    name: str
    n: int
    samples: int             # tables per population
    smoke_samples: int
    extract_args: tuple
    passes: int              # passes over analysis and verify per table


SPECS = {s.name: s for s in (
    Spec(SPARSE, 10, 5, 2, ("--mode", "sparsify", "--no-denoise"), 2),
    Spec(TWO_NETS, 8, 4, 1, (), 2),
)}


def populations(spec):
    """Two populations, one per net, or one of games."""
    return ("a", "b") if spec.name == TWO_NETS else ("games",)


def table_dir(d: Path, pop: str, i: int) -> Path:
    """Each table has a directory of its own, so each ``extract`` is timed alone."""
    return d / f"tables_{pop}" / f"{i:04d}"


def table_path(d: Path, pop: str, i: int) -> Path:
    return table_dir(d, pop, i) / "table.json"


def effects_path(d: Path, pop: str, i: int) -> Path:
    return d / f"isets_{pop}" / f"sample_{i:04d}.json"


# --- inputs -----------------------------------------------------------------

def recovery_game(index: int, label: str):
    """A criterion-4 game: n=10, 15 order-3 effects on an antichain support,
    every magnitude at least 10 tau, redrawn until that holds."""
    for attempt in range(400):
        game = models.sample_sparse_game(10, 15, {3: 1.0}, effect_range=4.0,
                                         rng_seed=index * 1000 + attempt,
                                         magnitude_floor=3.2, antichain=True)
        v = models.realize_table(game, label=label)
        tau = 0.02 * v.gap()
        mags = [abs(c) for c in (*game.and_effects.values(), *game.or_effects.values())]
        if 10 * tau <= min(mags) and 14 * tau >= math.sqrt(10):
            return game, v
    raise RuntimeError(f"no acceptable game for index {index}")


def two_nets(n: int):
    """A TinyNet and a copy of it whose first-layer weights are drawn afresh."""
    widths = [n, *NET_HIDDEN, 2]
    net_a = models.TinyNet.random(widths, rng_seed=NET_SEED)
    first = models.TinyNet.random(widths, rng_seed=NET_SEED + 1).weights[0]
    net_b = models.TinyNet([first, *net_a.weights[1:]], list(net_a.biases))
    return net_a, net_b


def draw(spec: Spec, seed: int, samples: int):
    """The inputs the tables are made from: the two nets and the samples
    they score, or the accepted criterion-4 games. Not timed: the number of
    redraws a criterion-4 game needs is geometric, so on five games the
    search alone varied by a factor of three from seed to seed."""
    if spec.name == TWO_NETS:
        return two_nets(spec.n), np.random.default_rng(seed).normal(size=(samples, spec.n))
    return [recovery_game(seed * samples + i, f"sample_{i:04d}")[0] for i in range(samples)]


def setup(spec: Spec, d: Path, drawn, samples: int) -> None:
    """Write the workload's value tables (and ground truth) under ``d``."""
    for pop in populations(spec):
        for i in range(samples):
            table_dir(d, pop, i).mkdir(parents=True)
    if spec.name == TWO_NETS:
        nets, x = drawn
        baseline = np.zeros(spec.n)      # the mean of the input distribution
        for pop, net in zip(("a", "b"), nets):
            for i in range(samples):
                scheme = models.MaskingScheme(x[i], baseline)
                v = models.net_value_table(net, scheme, label=f"sample_{i:04d}")
                aio.write_table(v, table_path(d, pop, i))
        return
    truth = []
    for i, game in enumerate(drawn):
        label = f"sample_{i:04d}"
        aio.write_table(models.realize_table(game, label=label), table_path(d, "games", i))
        truth.append({"label": label,
                      "and": sorted(game.and_effects.items()),
                      "or": sorted(game.or_effects.items())})
    (d / "ground_truth.json").write_text(json.dumps(truth) + "\n")


# --- one round --------------------------------------------------------------

def _passes(op, argvs, passes):
    """Run the argvs in order, ``passes`` times over. Returns each one's
    (start, wall seconds) intervals and the (exit code, stdout) of each in
    the last pass."""
    times = [[] for _ in argvs]
    for _ in range(passes):
        last = []
        for argv, acc in zip(argvs, times):
            rc, interval, out = op(argv)
            acc.append(interval)
            last.append((rc, out))
    return times, last


def run_round(spec: Spec, d: Path, samples: int, op, first: bool,
              tick=lambda: None) -> dict:
    """One round of CLI operations; ``op(argv)`` runs one and returns
    (exit code, (start, wall seconds), stdout). Returns, for each step, every
    operation's intervals in the round, and the last pass's verify verdicts.

    Each table's ``extract`` is followed by ``spec.passes`` passes over the
    analysis and verify steps, so that these short operations are sampled
    all through the run rather than in one stretch of a few seconds. The
    first round has no outputs to analyse until its last ``extract``, so it
    makes all its passes after that; every round runs the same operations.
    ``tick()`` is called after every second table's passes.
    """
    pops = populations(spec)
    tables = [(pop, i) for pop in pops for i in range(samples)]
    analysis = [["profile", "--in", str(d / f"isets_{pop}"),
                 "--out", str(d / f"profile_{pop}.csv")] for pop in pops]
    analysis += [["similarity", "--train", str(d / f"isets_{p}"), "--test", str(d / f"isets_{q}"),
                  "--out", str(d / f"similarity_{p}_{q}.csv")]
                 for k, p in enumerate(pops) for q in pops[k:]]
    analysis.append(["compare", "--a", str(d / f"isets_{pops[0]}"),
                     "--b", str(d / f"isets_{pops[-1]}"), "--out", str(d / "compare.csv")])
    verify = [["oracle", "verify", "--table", str(table_path(d, pop, i)),
               "--interactions", str(effects_path(d, pop, i))] for pop, i in tables]
    times = [[] for _ in analysis + verify]
    last = []

    def passes(count):
        nonlocal last
        new, last = _passes(op, analysis + verify, count)
        for acc, t in zip(times, new):
            acc += t

    extract = []
    for k, (pop, i) in enumerate(tables):
        extract.append([op(["extract", "--in", str(table_dir(d, pop, i)),
                            "--out", str(d / f"isets_{pop}"), *spec.extract_args])[1]])
        if not first:
            passes(spec.passes)
        if k % 2 == 1:
            tick()
    if first:
        passes(spec.passes * len(tables))
    return {"extract": extract, "analysis": times[:len(analysis)],
            "verify": times[len(analysis):],
            "verdicts": [(pop, i, rc, out)
                         for (pop, i), (rc, out) in zip(tables, last[len(analysis):])]}


# --- checks -----------------------------------------------------------------

def _verify_error(out: str) -> float:
    prefix = "max_abs_error:"
    line = out.strip()
    return float(line[len(prefix):]) if line.startswith(prefix) else math.inf


def check(spec: Spec, d: Path, samples: int, verdicts) -> tuple[list[str], float]:
    """Check the last round's outputs; returns (failures, l1_total)."""
    failures = []
    l1_total = 0.0
    denoised = spec.name == TWO_NETS     # extract learns a delta in +-0.02 * gap
    for pop in populations(spec):
        tables = [checks.read_table(table_path(d, pop, i)) for i in range(samples)]
        effects = [checks.read_effects(effects_path(d, pop, i)) for i in range(samples)]
        n = spec.n
        if any(t[0] != n for t in tables) or any(e[0] != n for e in effects):
            return [f"{pop}: table or effect file with n != {n}"], 0.0
        values = np.stack([t[1] for t in tables], axis=1)
        bias = np.array([e[1] for e in effects])
        i_and = np.stack([e[2] for e in effects], axis=1)
        i_or = np.stack([e[3] for e in effects], axis=1)
        l1_total += float(np.abs(i_and).sum() + np.abs(i_or).sum())
        scales = np.array([checks.scale_of(values[:, j]) for j in range(samples)])
        if denoised:
            zetas = np.array([0.02 * checks.gap_of(values[:, j]) for j in range(samples)])
            tol = zetas + 1e-9 * scales
        else:
            tol = 1e-8 * scales
        labels = [f"{pop}/sample_{j:04d}" for j in range(samples)]
        failures += checks.check_reconstruction(labels, n, values, bias, i_and, i_or, tol)

        if spec.name == SPARSE:
            truth_doc = json.loads((d / "ground_truth.json").read_text())
            truth = [{("and", m) for m, _ in g["and"]} | {("or", m) for m, _ in g["or"]}
                     for g in truth_doc]
            failures += checks.check_support(
                [(values[:, j], i_and[:, j], i_or[:, j], truth[j]) for j in range(samples)])
            for j in range(samples):
                failures += checks.check_l1_bound(labels[j], n, values[:, j],
                                                  i_and[:, j], i_or[:, j])
                failures += checks.check_efficiency(labels[j], values[:, j], bias[j],
                                                    i_and[:, j], i_or[:, j], tol[j])
        failures += checks.check_self_similarity(
            f"{pop} with itself", checks.read_similarity(d / f"similarity_{pop}_{pop}.csv"))

        for vpop, i, rc, out in verdicts:
            if vpop != pop:
                continue
            if denoised:
                # The named fault: extract stores no delta, so verify compares
                # against delta = 0 and reports |delta|, which the box bounds.
                if rc != 1 or not _verify_error(out) <= tol[i]:
                    failures.append(f"{pop}/sample_{i:04d}: verify gave {rc} {out.strip()!r}, "
                                    f"expected exit 1 with an error within the box")
            elif rc != 0:
                failures.append(f"{pop}/sample_{i:04d}: verify exit {rc} {out.strip()!r}")
    return failures, l1_total
