"""Benchmark of the andor pipeline, from value tables on disk to verified reports.

    python3 andorbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. One run
is one fresh process. It draws the workload's inputs from the seed, writes
their tables a few times (``setup_s``), repeats whole rounds of CLI
operations (see ``workloads.py``) until the next round would end more than
half a round past ``--seconds``, times the CLI's import in fresh
interpreters through the run, and checks the last round's outputs. Every
time is taken at the machine's reference speed (see ``clock.py``) and is
the median over the run's repeats of each operation. The last line of
standard output is the result as one JSON object; the line before it records
the environment and the same metrics in plain wall-clock seconds.

``--trace 1`` reports per-layer metrics from spans instead (see
``spans.py``), averaged over the traced rounds, and writes the spans to
``.andorbench/traces/``. One uncounted extract runs first; after the traced
rounds, one untraced round gives the tracing overhead as the difference in
pipeline_s. ``--smoke`` runs a tiny version of the workload, for the
benchmark's tests.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".andorbench"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 5
STEPS = ("extract", "analysis", "verify")

END_TO_END = [
    ("setup_s", "s"),
    ("import_s", "s"),
    ("extract_tables_per_s", "tables/s"),
    ("analysis_s", "s"),
    ("verify_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one or two samples per population, one set-up")
    return p.parse_args(argv)


class Runner:
    """Runs CLI operations in this process, counts them, and probes the
    clock after each."""

    def __init__(self, span, clock):
        import andor.cli
        self.cli = andor.cli
        self.span = span
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, argv):
        """Run one operation; returns (exit code, (start, wall seconds), stdout)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with self.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except Exception:
                rc = None
                err.write(traceback.format_exc())
        interval = (t0, time.perf_counter() - t0)
        self.clock.probe()
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            if rc != 1 or argv[:2] != ["oracle", "verify"]:
                self.errors.append(f"{' '.join(argv)} -> {rc}: {err.getvalue().strip()}")
        return rc, interval, out.getvalue()


def run_import() -> None:
    """One fresh ``python -m andor.cli --help``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "andor.cli", "--help"], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, check=True)


def step_s(rounds, step, seconds) -> float:
    """A step's time: the sum over its operations of the median of each
    one's ``seconds(interval)`` over all its runs in the given rounds."""
    per_op = zip(*(r[step] for r in rounds))
    return sum(statistics.median(seconds(iv) for ivs in op for iv in ivs) for op in per_op)


def pipeline_s(rounds, seconds) -> float:
    return sum(step_s(rounds, step, seconds) for step in STEPS)


def end_to_end(rounds, setups, imports, seconds) -> dict:
    """The timed end-to-end metrics, with ``seconds(interval)`` as the clock."""
    return {
        "setup_s": statistics.median(map(seconds, setups)),
        "import_s": statistics.median(map(seconds, imports)),
        "extract_tables_per_s": len(rounds[0]["extract"]) / step_s(rounds, "extract", seconds),
        "analysis_s": step_s(rounds, "analysis", seconds),
        "verify_s": step_s(rounds, "verify", seconds),
        "pipeline_s": pipeline_s(rounds, seconds),
    }


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": NPROC,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "andor" / "__init__.py").is_file():
        sys.stderr.write(f"error: the andor sources are not at {SRC}\n")
        return 2
    for var in BLAS_VARS:     # before numpy is imported
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    from clock import REFERENCE_S, Clock
    from spans import PER_LAYER, Tracer, summarize

    if args.workload not in workloads.SPECS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.SPECS)}\n")
        return 2
    spec = workloads.SPECS[args.workload]
    samples = spec.smoke_samples if args.smoke else spec.samples
    setups_per_run = 1 if args.smoke else SETUPS
    run_dir = WORK / f"{spec.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)

    tracer = Tracer(spec.name) if args.trace else None

    def span(name):
        return tracer.span(name) if tracer and tracer.installed else contextlib.nullcontext()

    clock = Clock()
    # The import samples come before the rounds and after every second table
    # of each, so that they span the run.
    imports = []

    def sample_import():
        if not tracer:
            imports.append(clock.timed(run_import))

    try:
        sample_import()
        drawn = workloads.draw(spec, args.seed, samples)
        if tracer:
            tracer.install()
        setups, setup_spans = [], []
        for k in range(setups_per_run):
            d = run_dir / f"setup{k}"
            with span("bench.setup") as index:
                setups.append(clock.timed(workloads.setup, spec, d, drawn, samples))
            setup_spans.append(index)
            if k + 1 < setups_per_run:
                shutil.rmtree(d)

        runner = Runner(span, clock)
        if tracer:
            # One untimed, uncounted extract first, so that the traced round
            # and the untraced round after it both start with the process's
            # lazy imports done. The oracle stays cold for oracle.first_call_s.
            first = workloads.table_dir(d, workloads.populations(spec)[0], 0)
            tracer.uninstall()
            runner.cli.main(["extract", "--in", str(first), "--out", str(d / "warmup"),
                             *spec.extract_args])
            tracer.install()
        rounds, round_spans = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            with span("bench.round") as index:
                rounds.append(workloads.run_round(spec, d, samples, runner.op,
                                                  first=not rounds, tick=sample_import))
            round_spans.append(index)
            now = time.perf_counter()
            if now - start + 0.5 * (now - t0) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
            untraced = workloads.run_round(spec, d, samples, runner.op, first=False)
        clock.probe(3)

        try:
            failures, l1_total = workloads.check(spec, d, samples, rounds[-1]["verdicts"])
        except Exception:   # a missing or malformed output fails the run's checks
            failures, l1_total = [traceback.format_exc()], 0.0
        failures += runner.errors
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    info = {"environment": environment(), "workload": spec.name, "seed": args.seed,
            "rounds": len(rounds),
            "probe_median_s": statistics.median(clock.times), "probe_reference_s": REFERENCE_S}
    if tracer:
        metrics = summarize(tracer.spans, round_spans, setup_spans)
        metrics["trace.overhead_s"] = (
            statistics.median(pipeline_s([r], clock.scaled) for r in rounds)
            - pipeline_s([untraced], clock.scaled))
        metrics["l1_total"] = l1_total
        units = dict(PER_LAYER)
        tracer.write(WORK / "traces" / f"{spec.name}-seed{args.seed}.jsonl.gz")
    else:
        metrics = end_to_end(rounds, setups, imports, clock.scaled)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = dict(END_TO_END)
        info["wall_clock"] = end_to_end(rounds, setups, imports, lambda iv: iv[1])

    for line in failures:
        sys.stderr.write(f"check failed: {line}\n")
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
