"""Command-line front end.

Every command is a pure function of its inputs and flags: outputs are
byte-identical across re-runs with the same seed. Exit codes: 0 success,
1 failed diagnose/axioms/oracle-verify verdict, 2 input error (missing or
empty inputs, parse errors, wrong JSON types, mixed n, non-finite effects,
an output path that cannot be written, or a flag value out of range: the
CLI's own check, which names the flag, or the library's ValueError, as one
line). Every input error, and every output path of ``synth`` and
``extract`` that is a directory, is found before the first output is
written, so a run that exits 2 on one leaves no file or directory behind.

``main`` may be called any number of times in one process: it parses with
one parser, built on the first call. argparse keeps no state between
parses, so each call behaves as in a fresh process.
"""

import argparse
import os
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np

from . import io as aio
from .analysis import (AXIOM_MAX_N, AXIOM_MIN_N, axiom_suite, compare_models,
                       default_theta, sample_report, sparsity_diagnostics)
from .extraction import DEFAULT_SALIENCE_FRACTION, all_and, salience_threshold, sparsify
from .metrics import is_undefined, order_profile, per_order_jaccard
from .models import (inject_overfit, interaction_function_table, realize_table,
                     sample_sparse_game)
from .oracle import verify_matching

IO_ERROR = 2
TAU_HELP = "count only effects with |effect| above tau (default 0: every nonzero one)"
# Output names that are not samples' effect files.
RESERVED_NAMES = ("batch", "ground_truth")


class CliError(Exception):
    """I/O-level failure; maps to exit code 2."""


def _read(reader, path):
    """``reader(path)``; an unreadable or malformed file is a CliError."""
    try:
        return reader(path)
    except KeyError as e:
        raise CliError(f"cannot read {path}: missing key {e}") from e
    except (OSError, ValueError) as e:
        raise CliError(f"cannot read {path}: {e}") from e


def _load_dir(path, reader, suffix=".json"):
    d = Path(path)
    if not d.is_dir():
        raise CliError(f"not a directory: {d}")
    reserved = {f"{name}.json" for name in RESERVED_NAMES}
    files = sorted(f for f in d.glob(f"*{suffix}") if f.name not in reserved)
    if not files:
        raise CliError(f"no {suffix} files in {d}")
    return [_read(reader, f) for f in files]


def _load_dirs(reader, *paths):
    """One list of parsed files per directory; all of them must share one n.

    Each distinct directory is read once: paths that resolve to the same
    directory (``d``, ``d/.``, a symlink to ``d``) get the same list object.
    """
    # realpath, unlike Path.resolve, does not raise on a symlink loop
    keys = [os.path.realpath(path) for path in paths]
    by_dir = {}
    for path, key in zip(paths, keys):
        if key not in by_dir:
            by_dir[key] = _load_dir(path, reader)
    ns = sorted({x.n for files in by_dir.values() for x in files})
    if len(ns) > 1:
        raise CliError(f"the files in {' and '.join(map(str, dict.fromkeys(paths)))} "
                       f"mix n = {', '.join(map(str, ns))}")
    return [by_dir[key] for key in keys]


def _parse_orders(text: str) -> dict[int, float]:
    out = {}
    for part in text.split(","):
        try:
            k, w = part.split(":")
            order, weight = int(k), float(w)
        except ValueError as e:
            raise CliError(f"--orders wants order:weight pairs, got {part!r}") from e
        if not 0.0 <= weight < float("inf"):
            raise CliError(f"--orders must be order:weight pairs with finite weights >= 0, "
                           f"got {part!r}")
        out[order] = weight
    return out


def _check_range(flag: str, value, low, high=None) -> None:
    """A CliError naming flag unless low <= value (<= high); NaN is outside."""
    if not (low <= value and (high is None or value <= high)):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise CliError(f"{flag} must be {span}, got {value}")


def _check_writable(paths) -> None:
    """A CliError naming the first of the output paths that is a directory,
    checked before the first write so that such a run writes nothing."""
    for path in paths:
        if path.is_dir():
            raise CliError(f"cannot write {path}: it is a directory")


def _check_positive(flag: str, value) -> None:
    """A CliError naming flag unless value is finite and > 0."""
    if not 0 < value < float("inf"):
        raise CliError(f"{flag} must be finite and > 0, got {value}")


def cmd_synth(args) -> int:
    _check_range("--seed", args.seed, 0)
    _check_range("--samples", args.samples, 1)
    _check_range("--m", args.m, 0)
    _check_range("--overfit-fraction", args.overfit_fraction, 0.0, 1.0)
    _check_range("--overfit-pairs", args.overfit_pairs, 0)
    _check_range("--overfit-min-order", args.overfit_min_order, 1)
    _check_positive("--effect-range", args.effect_range)
    if args.magnitude_floor is not None:
        _check_positive("--magnitude-floor", args.magnitude_floor)
    _check_positive("--overfit-magnitude", args.overfit_magnitude)
    orders = _parse_orders(args.orders)
    out = Path(args.out)

    # Every game's table (or the one table) is built before --out is made, so
    # a value the library refuses leaves no directory behind.
    if args.interaction:
        v = interaction_function_table(args.mask, args.c, args.interaction, args.n,
                                       label="interaction_0000")
        path = out / "table_0000.json"
        _check_writable([path])
        out.mkdir(parents=True, exist_ok=True)
        aio.write_table(v, path)
        return 0

    rng = np.random.default_rng(args.seed)
    n_inject = round(args.overfit_fraction * args.samples)
    injected = set(rng.choice(args.samples, size=n_inject, replace=False).tolist())
    games, tables = [], []
    for i in range(args.samples):
        game = sample_sparse_game(
            args.n, args.m, orders, effect_range=args.effect_range,
            rng_seed=args.seed * 100003 + i, magnitude_floor=args.magnitude_floor,
            kinds=tuple(args.kinds.split(",")), antichain=args.antichain)
        if i in injected:
            game = inject_overfit(game, high_order_min=args.overfit_min_order,
                                  pair_count=args.overfit_pairs,
                                  magnitude=args.overfit_magnitude,
                                  rng_seed=args.seed * 100003 + i + 1)
        games.append(game)
        tables.append(realize_table(game, label=f"sample_{i:04d}"))

    paths = [out / f"table_{i:04d}.json" for i in range(args.samples)]
    _check_writable([*paths, out / "ground_truth.json"])
    out.mkdir(parents=True, exist_ok=True)
    sidecar = {"n": args.n, "seed": args.seed, "samples": []}
    for i, (game, v, path) in enumerate(zip(games, tables, paths)):
        aio.write_table(v, path)
        sidecar["samples"].append({
            "label": v.label,
            "injected": i in injected,
            "and": [{"mask": m, "value": c} for m, c in sorted(game.and_effects.items())],
            "or": [{"mask": m, "value": c} for m, c in sorted(game.or_effects.items())],
        })
    aio.write_json(sidecar, out / "ground_truth.json")
    return 0


def cmd_extract(args) -> int:
    tables, = _load_dirs(aio.read_table, args.input)
    names = [v.label or "table" for v in tables]
    duplicates = sorted(name for name, count in Counter(names).items() if count > 1)
    if duplicates:
        raise CliError(f"tables in {args.input} share the labels {duplicates}; "
                       "each label names one output file")
    unsafe = sorted(name for name in set(names) if name in RESERVED_NAMES
                    or any(part in name for part in ("/", "\\", "..")))
    if unsafe:
        raise CliError(f"tables in {args.input} have the labels {unsafe}, which "
                       "name reserved files or leave the output directory")

    # Every table is solved before --out is made, so a table whose effects
    # the library refuses leaves no file behind.
    isets, solvers = [], {}
    for v, name in zip(tables, names):
        if args.mode == "all-and":
            isets.append(all_and(v))
        else:
            result = sparsify(v, denoise=not args.no_denoise)
            isets.append(result.interactions)
            solvers[name] = result.solver
    out = Path(args.out)
    paths = [out / f"{name}.json" for name in names]
    _check_writable([*paths, out / "batch.json"])
    out.mkdir(parents=True, exist_ok=True)
    for iset, path in zip(isets, paths):
        aio.write_interactions(iset, path)
    aio.write_json({"mode": args.mode, "n": tables[0].n, "solver": solvers},
                   out / "batch.json")
    return 0


def cmd_profile(args) -> int:
    sets, = _load_dirs(aio.read_interactions, args.input)
    rows = [(s.label, order_profile(s, args.tau_absolute)) for s in sets]
    aio.write_profiles(rows, args.out)
    return 0


def cmd_similarity(args) -> int:
    train, test = _load_dirs(aio.read_interactions, args.train, args.test)
    report = per_order_jaccard(train, test, tau=args.tau_absolute)
    aio.write_similarity(report, args.out)
    return 0


def _reports(sets, tau, theta):
    th = theta if theta is not None else default_theta(sets[0].n)
    return [sample_report(s, tau, th) for s in sets]


def cmd_compare(args) -> int:
    sets_a, sets_b = _load_dirs(aio.read_interactions, args.a, args.b)
    if not {s.label for s in sets_a} & {s.label for s in sets_b}:
        raise CliError(f"{args.a} and {args.b} share no sample label")
    reports_a = _reports(sets_a, args.tau_absolute, args.theta)
    reports_b = reports_a if sets_b is sets_a else \
        _reports(sets_b, args.tau_absolute, args.theta)
    cmp = compare_models(reports_a, reports_b)
    aio.write_comparison(cmp, args.out)
    return 0


def _read_inputs(table, interactions):
    """Read a table and its interaction file; failures are CliErrors."""
    v = _read(aio.read_table, table)
    iset = _read(aio.read_interactions, interactions)
    if iset.n != v.n:
        raise CliError(f"{interactions} has n={iset.n}, the table has n={v.n}")
    return v, iset


def _write_lines(lines, out):
    """Write the lines, each ended by a newline, to the file out, or to stdout
    when out is not given."""
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_diagnose(args) -> int:
    v, iset = _read_inputs(args.table, args.interactions)
    tau = args.tau_absolute if args.tau_absolute is not None else \
        salience_threshold([v], args.tau_fraction)
    max_order = min(3, v.n) if args.max_order is None else args.max_order
    diag = sparsity_diagnostics(v, iset, tau, max_order)
    lines = [
        f"condition1_max_order_ok: {diag.condition1_ok} "
        f"(max salient order {diag.max_salient_order}, bound {max_order})",
        f"condition2_monotone_ok: {diag.condition2_ok}"
        + ("" if diag.condition2_violation is None
           else f" (violated at k={diag.condition2_violation})"),
        f"condition3_min_p: "
        + ("infeasible" if diag.condition3_min_p == float("inf")
           else repr(diag.condition3_min_p)),
        f"salient_count: {diag.salient_count}",
        f"kappa_fit: "
        + ("undefined" if is_undefined(diag.kappa_fit) else repr(diag.kappa_fit)),
    ]
    _write_lines(lines, args.out)
    ok = diag.condition1_ok and diag.condition2_ok \
        and diag.condition3_min_p != float("inf")
    return 0 if ok else 1


def cmd_axioms(args) -> int:
    _check_range("--n", args.n, AXIOM_MIN_N, AXIOM_MAX_N)
    _check_range("--seed", args.seed, 0)
    results = axiom_suite(args.n, args.trials, args.seed)
    lines = [f"{r.name}: {'pass' if r.passed else 'FAIL'} "
             f"(trials {r.trials}, max error {r.max_error:.3e})" for r in results]
    _write_lines(lines, args.out)
    return 0 if all(r.passed for r in results) else 1


def cmd_oracle(args) -> int:
    if args.interactions is None:
        raise CliError("oracle verify needs --interactions")
    v, iset = _read_inputs(args.table, args.interactions)
    # delta = 0: effect files store no delta, so the samples of a default
    # (denoised) extract exit 1 here, reporting their max|delta| (ROADMAP item 1)
    err = verify_matching(v, iset, 0.0)
    sys.stdout.write(f"max_abs_error: {err!r}\n")
    # at the table's own scale, as sparsify solves it
    return 0 if err <= 1e-8 * float(np.max(np.abs(v.values))) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="andor",
        description="Sparse AND-OR interaction extraction over masked value tables")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate synthetic value tables")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--samples", type=int, default=1)
    sp.add_argument("--m", type=int, default=15)
    sp.add_argument("--orders", default="2:0.5,3:0.5",
                    help="order:weight list, e.g. 3:1.0")
    sp.add_argument("--effect-range", type=float, default=4.0)
    sp.add_argument("--magnitude-floor", type=float, default=None)
    sp.add_argument("--kinds", default="and,or")
    sp.add_argument("--antichain", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--overfit-fraction", type=float, default=0.0)
    sp.add_argument("--overfit-min-order", type=int, default=7)
    sp.add_argument("--overfit-pairs", type=int, default=10)
    sp.add_argument("--overfit-magnitude", type=float, default=5.0)
    sp.add_argument("--interaction", choices=["and", "or"],
                    help="emit a single pure-interaction table instead")
    sp.add_argument("--mask", type=lambda s: int(s, 0), default=0b11)
    sp.add_argument("--c", type=float, default=1.0)
    sp.set_defaults(func=cmd_synth)

    ep = sub.add_parser("extract", help="extract interactions from tables")
    ep.add_argument("--in", dest="input", required=True)
    ep.add_argument("--out", required=True)
    ep.add_argument("--mode", choices=["sparsify", "all-and"], default="sparsify")
    ep.add_argument("--no-denoise", action="store_true")
    ep.set_defaults(func=cmd_extract)

    pp = sub.add_parser("profile", help="order profiles of interaction files")
    pp.add_argument("--in", dest="input", required=True)
    pp.add_argument("--out", required=True)
    pp.add_argument("--tau-absolute", type=float, default=0.0, help=TAU_HELP)
    pp.set_defaults(func=cmd_profile)

    yp = sub.add_parser("similarity", help="per-order Jaccard between two sets")
    yp.add_argument("--train", required=True)
    yp.add_argument("--test", required=True)
    yp.add_argument("--out", required=True)
    yp.add_argument("--tau-absolute", type=float, default=0.0, help=TAU_HELP)
    yp.set_defaults(func=cmd_similarity)

    cp = sub.add_parser("compare", help="compare two models' sample complexities")
    cp.add_argument("--a", required=True)
    cp.add_argument("--b", required=True)
    cp.add_argument("--out", required=True)
    cp.add_argument("--tau-absolute", type=float, default=0.0, help=TAU_HELP)
    cp.add_argument("--theta", type=float, default=None)
    cp.set_defaults(func=cmd_compare)

    dp = sub.add_parser("diagnose", help="sparsity diagnostics of one table")
    dp.add_argument("--table", required=True)
    dp.add_argument("--interactions", required=True)
    dp.add_argument("--tau-absolute", type=float, default=None)
    dp.add_argument("--tau-fraction", type=float, default=DEFAULT_SALIENCE_FRACTION)
    dp.add_argument("--max-order", type=int, default=None,
                    help="bound of condition 1 (default: min(3, n))")
    dp.add_argument("--out", default=None)
    dp.set_defaults(func=cmd_diagnose)

    ap = sub.add_parser("axioms", help="randomized axiom verification")
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    ap.set_defaults(func=cmd_axioms)

    op = sub.add_parser("oracle", help="check an effect file against its table")
    op.add_argument("action", choices=["verify"])
    op.add_argument("--table", required=True)
    op.add_argument("--interactions")
    op.set_defaults(func=cmd_oracle)

    return p


# The parser main uses. It holds the cmd_* functions as built, so a rebinding
# of andor.cli.cmd_* after the first call would not reach it.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # An overflowing transform shows as non-finite effects, which
        # InteractionSet rejects; numpy's warning would be a second line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (CliError, ValueError, OSError) as e:
        # a ValueError here is the library rejecting a flag's value; an
        # OSError, an output path that cannot be written
        sys.stderr.write(f"error: {e}\n")
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
