"""Span tracing of symchain from outside the program.

``Tracer.install`` replaces every public function of the layer modules
at every name a caller looks it up by (the defining module, each module
that imported it, the package), so calls through both
``symchain.chain.left_null_space`` and ``symchain.dirac.left_null_space``,
two bindings of one function, are traced.  ``restore`` puts the
originals back.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import symchain

LAYERS = ("expressions", "linalg", "model", "lattice", "chain", "dirac", "reports", "cli")


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _argument(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


# Per-call measurements taken from a traced function's arguments and result.
MEASURES = {
    "linalg.left_null_space": lambda args, kwargs, result: (
        _argument(args, kwargs, 0, "m").rows * _argument(args, kwargs, 0, "m").cols,
        max((_bits(x) for v in result for x in v), default=0),
    ),
    "expressions.reduce_modulo_linear": lambda args, kwargs, result: len(
        _argument(args, kwargs, 1, "basis")
    ),
    "dirac.poisson_bracket": lambda args, kwargs, result: (
        _argument(args, kwargs, 0, "a"),
        _argument(args, kwargs, 1, "b"),
    ),
    "reports.render_tree": lambda args, kwargs, result: len(result.encode()),
}


class Tracer:
    """Records (name, start, end, parent, run) spans of traced calls."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.measured: dict[int, object] = {}
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, measured, clock = self.spans, self._stack, self.measured, self.clock
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the index so children can name it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
            if measure is not None:
                measured[index] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"symchain.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for module in [symchain] + modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patched.append((module, name, obj))

    def restore(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Totals:
    """Calls, inclusive time and self time per traced name over some runs."""

    def __init__(self, tracer: Tracer, runs: set[int]):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.parent_of: dict[int, str] = {}
        self.indices: dict[str, list[int]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        spans = tracer.spans
        for index, (name, start, end, parent, run) in enumerate(spans):
            if run not in runs:
                continue
            if parent >= 0:
                child_time[parent] += end - start
                self.parent_of[index] = spans[parent][0]
        for index, (name, start, end, parent, run) in enumerate(spans):
            if run not in runs:
                continue
            self.calls[name] += 1
            self.seconds[name] += end - start
            self.self_seconds[name] += end - start - child_time[index]
            self.indices[name].append(index)


def counts(tracer: Tracer, run: int) -> dict[str, object]:
    """Call counts and per-call measurements of one run, for the repeat check."""
    totals = Totals(tracer, {run})
    out: dict[str, object] = dict(totals.calls)
    for name, indices in totals.indices.items():
        if name in MEASURES and name != "dirac.poisson_bracket":
            out[name + ".measured"] = [tracer.measured.get(i) for i in indices]
    return out


def _tree_counts(trees: list[str]) -> dict[str, int]:
    """Chain counts read off the reports: levels, truncations, candidate verdicts."""
    out = dict.fromkeys(
        ("levels", "truncation.hits", "truncation.attempts", "candidates.new",
         "candidates.redundant", "candidates.multiplier_fixing", "det_bits"), 0
    )
    for text in trees:
        try:
            tree = json.loads(text)
        except ValueError:  # the worker reports malformed trees as failed checks
            continue
        out["levels"] += len(tree["eigenvectors"])
        out["truncation.hits"] += len(tree["truncations"])
        for record in tree["eigenvectors"]:
            out["truncation.attempts"] += record["truncated"]
            for cand in record["candidates"]:
                out["candidates." + cand["classification"].replace("-", "_")] += 1
        det = tree["termination"]["determinant"]
        if det is not None:
            out["det_bits"] = max(out["det_bits"], _bits(Fraction(det)))
    return out


def layer_metrics(tracer: Tracer, runs: set[int], trees: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics summed over ``runs``; ``trees`` are those runs' reports."""
    t = Totals(tracer, runs)
    measured = tracer.measured
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[name + ".calls"] = (t.calls[name], "count")

    def seconds(name):
        out[name + ".s"] = (t.seconds[name], "s")

    lns, det, rml = "linalg.left_null_space", "linalg.determinant", "expressions.reduce_modulo_linear"
    calls(lns)
    seconds(lns)
    out[lns + ".entries"] = (sum(measured[i][0] for i in t.indices[lns]), "count")
    calls(det)
    seconds(det)
    chain = _tree_counts(trees)
    null_bits = max((measured[i][1] for i in t.indices[lns]), default=0)
    out["linalg.coeff_bits_max"] = (max(null_bits, chain.pop("det_bits")), "bits")
    calls(rml)
    seconds(rml)
    out[rml + ".basis_rows"] = (sum(measured[i] for i in t.indices[rml]), "count")
    for name in ("expressions.parse_expression", "model.load_model",
                 "model.legendre_transform", "lattice.build_schwinger"):
        calls(name)
        seconds(name)
    calls("chain.build_base_tensor")
    calls("chain.assemble_rhs")
    seconds("chain.assemble_extended_matrix")
    out["chain.find_new_constraints.self_s"] = (t.self_seconds["chain.find_new_constraints"], "s")
    for key, value in chain.items():
        out["chain." + key] = (value, "count")
    pb = "dirac.poisson_bracket"
    calls(pb)
    seconds(pb)
    distinct = sum(
        len({measured[i] for i in t.indices[pb] if tracer.spans[i][4] == run}) for run in runs
    )
    out[pb + ".distinct"] = (distinct, "count")
    out["dirac.bracket_reuse"] = (1 - distinct / t.calls[pb] if t.calls[pb] else 0.0, "ratio")
    out["dirac.passes"] = (
        sum(t.parent_of.get(i) == "dirac.consistency_algorithm" for i in t.indices[lns]),
        "count",
    )
    seconds("dirac.compare_spans")
    seconds("reports.render_tree")
    out["reports.render_tree.bytes"] = (
        sum(measured[i] for i in t.indices["reports.render_tree"]), "bytes"
    )
    out["cli.main.self_s"] = (t.self_seconds["cli.main"], "s")
    for layer in LAYERS:
        own = [n for n in t.self_seconds if n.startswith(layer + ".")]
        out[f"layer.{layer}.self_s"] = (sum(t.self_seconds[n] for n in own), "s")
    return out
