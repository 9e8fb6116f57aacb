"""Span tracing of the andor layers, installed from outside the package.

``Tracer.install`` wraps every public function that a layer module defines
and rebinds the wrapper under every name the function is reachable by: in
the modules that imported it (``from .lattice import mobius_and`` in
``andor.extraction``), in the ``andor`` package, and in its own module, so
that attribute calls such as ``aio.read_table`` are traced too. Two modules
keep their own names untraced: ``andor.lattice``, whose helpers run inside
every transform, and ``andor.cli``, whose commands the benchmark spans
itself. ``scipy.optimize.minimize`` as imported by ``andor.extraction`` is
wrapped too, to read the solver's iteration and evaluation counts.

Spans are kept in memory as [name, start, end, parent, workload, attrs] lists
and written out once, at the end of a run.
"""

import gzip
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

LAYERS = ("lattice", "extraction", "oracle", "io", "metrics", "analysis", "models", "cli")
# Modules whose own namespace keeps the untraced functions (see module docstring).
SELF_UNTRACED = ("andor.lattice", "andor.cli")
TRANSFORMS = {"lattice.mobius_and", "lattice.mobius_or", "lattice.zeta_subsets",
              "lattice.mobius_and_transpose"}
CLI_COMMANDS = ("extract", "profile", "similarity", "compare", "oracle")

# (name, unit) of every per-layer metric, per traced round unless noted.
PER_LAYER = [
    ("lattice.calls", "count"),
    ("lattice.busy_s", "s"),
    ("lattice.us_per_call", "us"),
    ("lattice.computed_mb", "MB"),
    ("extraction.sparsify_calls", "count"),
    ("extraction.sparsify_busy_s", "s"),
    ("extraction.self_s", "s"),
    ("extraction.solver_nit", "count"),
    ("extraction.solver_nfev", "count"),
    ("extraction.extract_busy_s", "s"),
    ("io.write_s", "s"),
    ("io.bytes_written", "bytes"),
    ("io.read_s", "s"),
    ("io.bytes_read", "bytes"),
    ("metrics.calls", "count"),
    ("metrics.busy_s", "s"),
    ("analysis.busy_s", "s"),
    ("oracle.verify_calls", "count"),
    ("oracle.busy_s", "s"),
    ("oracle.first_call_s", "s"),      # the first oracle call of the process
    ("models.busy_s", "s"),            # per set-up, not per round
    *((f"cli.{c}_s", "s") for c in CLI_COMMANDS),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),         # traced minus untraced pipeline_s
    # Not a span metric: the L1 of every written effect set, summed. It is
    # set by the solver and the inputs, not the clock (see README).
    ("l1_total", "effect"),
]
# Metrics the caller fills in, not summed from spans.
DERIVED = ("lattice.us_per_call", "oracle.first_call_s", "trace.overhead_s", "l1_total")


def _transform_bytes(args, kwargs, out):
    # Computed, not measured: a copy of the input (read + write), then
    # log2(N) passes that each read all N float64 entries and write half.
    size = len(out)
    return {"bytes": 8 * size * (2 + 1.5 * (size.bit_length() - 1))}


def _written_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


def _read_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _solver_counts(args, kwargs, out):
    return {"nit": int(out.nit), "nfev": int(out.nfev)}


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.workload, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Record a span around the body; yields the span's index."""
        index = len(self.spans)
        self._open(name)
        try:
            yield index
        finally:
            self._close()

    def wrap(self, name, fn, measure=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if measure is not None:
                rec[5] = measure(args, kwargs, out)
            return out
        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"andor.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                full = f"{layer}.{name}"
                measure = None
                if full in TRANSFORMS:
                    measure = _transform_bytes
                elif layer == "io" and name.startswith("write_"):
                    measure = _written_bytes
                elif layer == "io" and name.startswith("read_"):
                    measure = _read_bytes
                wrappers[id(obj)] = self.wrap(full, obj, measure)
        solver = modules["extraction"].minimize
        wrappers[id(solver)] = self.wrap("extraction.minimize", solver, _solver_counts)

        for mod in (sys.modules["andor"], *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) not in wrappers or (mod.__name__ in SELF_UNTRACED
                                               and obj.__module__ == mod.__name__):
                    continue
                self._undo.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def uninstall(self):
        for mod, name, obj in reversed(self._undo):
            setattr(mod, name, obj)
        self._undo.clear()

    def write(self, path):
        """Spans as gzipped JSON lines, one [name, start, end, parent, workload, attrs] each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, rounds: list[int], setups: list[int]) -> dict:
    """Per-layer metrics per traced round, ``models.busy_s`` per set-up.

    ``rounds`` and ``setups`` are the indices of the benchmark's own root
    spans. A layer's entry spans are those whose parent belongs to another
    layer: their durations add up to the layer's busy time without counting
    nested calls twice. Self time is a span's duration minus its direct
    children's, summed over the layer. ``trace.overhead_s`` is left to the
    caller, which times an untraced round.
    """
    root = [0] * len(spans)
    child_time = [0.0] * len(spans)
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child_time[parent] += end - start
    in_round, in_setup = set(rounds), set(setups)

    acc = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    first_oracle = None
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        if parent < 0:
            continue
        layer = layer_of(name)
        dur = end - start
        entry = layer_of(spans[parent][0]) != layer
        if layer == "oracle" and entry and first_oracle is None:
            first_oracle = dur
        if root[i] in in_setup:
            if layer == "models" and entry:
                acc["models.busy_s"] += dur
            continue
        if root[i] not in in_round:
            continue
        acc["trace.spans"] += 1
        if entry and layer in ("lattice", "metrics", "analysis", "oracle"):
            acc[f"{layer}.busy_s"] += dur
            if layer in ("lattice", "metrics"):
                acc[f"{layer}.calls"] += 1
        if layer in ("extraction", "cli"):
            acc[f"{layer}.self_s"] += dur - child_time[i]
        if name == "extraction.sparsify":
            acc["extraction.sparsify_calls"] += 1
            acc["extraction.sparsify_busy_s"] += dur
        elif name == "extraction.extract":
            acc["extraction.extract_busy_s"] += dur
        elif name == "extraction.minimize":
            acc["extraction.solver_nit"] += attrs["nit"]
            acc["extraction.solver_nfev"] += attrs["nfev"]
        elif name == "oracle.verify_matching":
            acc["oracle.verify_calls"] += 1
        elif name in TRANSFORMS:
            acc["lattice.computed_mb"] += attrs["bytes"] / 1e6
        elif name.startswith("io.write_"):
            acc["io.write_s"] += dur
            acc["io.bytes_written"] += attrs["bytes"]
        elif name.startswith("io.read_"):
            acc["io.read_s"] += dur
            acc["io.bytes_read"] += attrs["bytes"]
        elif layer == "cli":
            acc[f"{name}_s"] += dur

    out = {}
    for name, _ in PER_LAYER:
        if name == "models.busy_s":
            out[name] = acc[name] / max(1, len(setups))
        elif name not in DERIVED:
            out[name] = acc[name] / max(1, len(rounds))
    calls = out["lattice.calls"]
    out["lattice.us_per_call"] = 1e6 * out["lattice.busy_s"] / calls if calls else 0.0
    out["oracle.first_call_s"] = first_oracle if first_oracle is not None else 0.0
    return out
