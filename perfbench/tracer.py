"""In-process tracer that wraps natgrad's layer boundaries from outside.

``Tracer.install()`` replaces each traced callable with a wrapper that
records a span (name, start, end, parent span) and hands the call through
unchanged; ``Tracer.uninstall()`` puts every original object back.  A
function imported by name into several modules (``from .metric import
fd_local_hessian``), the ``natgrad`` package namespace included, is patched
in every one whose attribute is that same object.

Spans of the current op live in flat arrays.  ``end_op()`` folds them into
per-op statistics (calls per span name, inclusive time of the outermost
span of each name, self time per layer) and keeps the raw arrays of the
first ops so they can be written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "families", "quadrature", "numdiff", "similarity", "metric",
    "optimizer", "gp_bench", "validation", "cli",
)

# Module functions traced at every import site, by defining module.
FUNCTIONS = {
    "families": ["eq_covariance"],
    "quadrature": ["gauss_legendre", "composite_legendre", "unit_interval_grid"],
    "numdiff": ["central_gradient", "central_hessian"],
    "metric": [
        "fisher_information", "monte_carlo_fisher", "f_div_local_hessian",
        "riemannian_pullback", "pullback_fisher_categorical", "w2_local_hessian_1d",
        "wp_local_hessian_1d", "fd_local_hessian",
    ],
    "optimizer": ["optimize", "natural_gradient_step", "newton_step", "backtracking_line_search"],
    "gp_bench": [
        "run_benchmark", "generate_data", "gp_fisher_metric", "gp_w2_metric",
        "gp_nll", "gp_nll_grad", "eq_kernel",
    ],
    "validation": ["run_checks"],
    "cli": ["main", "cmd_run", "cmd_hessian", "cmd_validate", "cmd_bench_gp"],
}

_NO_PARENT = -1


class Tracer:
    """Span recorder for one benchmark process.  Not thread-safe."""

    def __init__(self, keep_ops: int = 0):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.keep_ops = keep_ops
        self.kept: list[dict] = []
        self.begin_op()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"natgrad.{name}") for name in LAYERS}
        sites = [importlib.import_module("natgrad"), *modules.values()]
        for layer, fnames in FUNCTIONS.items():
            for fname in fnames:
                self._patch_everywhere(sites, modules[layer], fname, f"{layer}.{fname}", layer)
        # Only the optimizer's projection (the step solve) is an optimizer
        # span; the one inside ``riemannian_pullback`` stays metric self time.
        self._patch(modules["optimizer"], "spd_project", modules["metric"].spd_project,
                    "optimizer.spd_project", "optimizer")
        for cls in _subclasses(modules["families"].Family):
            for attr, fn in vars(cls).items():
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    self._patch(cls, attr, fn, f"families.{attr}", "families")
        for cls in _subclasses(modules["similarity"].Similarity):
            for attr in ("evaluate", "grad_theta"):
                fn = vars(cls).get(attr)
                if fn is not None:
                    self._patch(cls, attr, fn, f"similarity.{attr}", "similarity")
        engine = modules["metric"].MetricEngine
        self._patch(engine, "__call__", vars(engine)["__call__"], "metric.engine", "metric")
        for fname in [f for f in vars(modules["validation"]) if f.startswith("check_")]:
            self._patch_everywhere(sites, modules["validation"], fname, f"validation.{fname}",
                                   "validation")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def _patch_everywhere(self, sites, home, fname, span_name, layer) -> None:
        original = getattr(home, fname)
        for module in sites:
            if module.__dict__.get(fname) is original:
                self._patch(module, fname, original, span_name, layer)

    def _patch(self, owner, attr, original, span_name, layer) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, self._name_id(span_name, layer), span_name))

    def _name_id(self, span_name: str, layer: str) -> int:
        if span_name not in self.names:
            self.names.append(span_name)
            self.layer_of.append(LAYERS.index(layer))
        return self.names.index(span_name)

    def _wrap(self, fn, name_id: int, span_name: str):
        post = _POST_HOOKS.get(span_name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer._name)
            tracer._name.append(name_id)
            tracer._parent.append(tracer._stack[-1])
            tracer._raised.append(0)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            tracer._stack.append(idx)
            tracer._start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._raised[idx] = 1
                raise
            finally:
                tracer._end[idx] = perf_counter()
                tracer._stack.pop()
            if post is not None:
                post(tracer.counters, args, result)
            return result

        return traced

    # -- per-op aggregation ------------------------------------------------

    def begin_op(self) -> None:
        """Start a fresh span buffer and fresh counters for the next op."""
        self._name = array("i")
        self._parent = array("i")
        self._raised = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack = [_NO_PARENT]
        self.counters = {
            "optimizer.iters": 0, "optimizer.fallbacks": 0, "optimizer.spd_project.shifted": 0,
            "validation.checks": 0, "validation.failed": 0, "gp_bench.iters_to_threshold": [],
        }

    def end_op(self, op_index: int) -> dict:
        """Fold the op's spans into statistics and start a fresh span buffer."""
        n = len(self._name)
        names = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        raised = np.array(self._raised, dtype=np.int64)
        start = np.array(self._start, dtype=float)
        end = np.array(self._end, dtype=float)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        layer = np.asarray(self.layer_of, dtype=np.int64)[names]
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        # A span is outermost for its name when its parent has another name;
        # nested spans of one name (a wrapper calling its base) are counted
        # once in inclusive times.
        outer = parent_name != names

        calls = np.bincount(names, minlength=len(self.names))
        raised_n = np.bincount(names, weights=raised, minlength=len(self.names))
        incl = np.bincount(names[outer], weights=dur[outer], minlength=len(self.names))
        layer_self = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        stats = {
            "calls": {nm: int(c) for nm, c in zip(self.names, calls)},
            "raised": {nm: int(r) for nm, r in zip(self.names, raised_n)},
            "ms": {nm: 1e3 * float(t) for nm, t in zip(self.names, incl)},
            "self_ms": {ly: 1e3 * float(t) for ly, t in zip(LAYERS, layer_self)},
            "counters": self.counters,
        }

        # Cost evaluations: similarity values requested by the optimizer
        # itself (iterate costs and line-search trials), not those made
        # inside finite-difference gradients or metric stencils.
        evaluate = self.names.index("similarity.evaluate")
        optimizer_layer = LAYERS.index("optimizer")
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        stats["cost_evals"] = int(np.sum((names == evaluate) & (parent_layer == optimizer_layer)))
        line_search = self.names.index("optimizer.backtracking_line_search")
        stats["line_search_evals"] = int(np.sum((names == evaluate) & (parent_name == line_search)))

        if len(self.kept) < self.keep_ops:
            self.kept.append({"op": op_index, "name": names, "parent": parent,
                              "start": start, "end": end, "raised": raised})
        self.begin_op()
        return stats

    def save_spans(self, path) -> None:
        """Write the kept spans as one compressed ``.npz`` archive."""
        if not self.kept:
            return
        ops = np.concatenate([np.full(len(k["name"]), k["op"], np.int32) for k in self.kept])
        cat = {key: np.concatenate([k[key] for k in self.kept])
               for key in ("name", "parent", "start", "end", "raised")}
        np.savez_compressed(path, op=ops, names=np.array(self.names), layers=np.array(LAYERS),
                            layer_of=np.array(self.layer_of), **cat)


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _after_optimize(counters, args, trace) -> None:
    counters["optimizer.iters"] += trace.iterations
    counters["optimizer.fallbacks"] += sum(1 for r in trace.records if r.fallback)


def _after_spd_project(counters, args, projected) -> None:
    before = getattr(args[0], "regularization_added", 0.0)
    if projected.regularization_added > before:
        counters["optimizer.spd_project.shifted"] += 1


def _after_run_benchmark(counters, args, result) -> None:
    for metric in result.traces:
        counters["gp_bench.iters_to_threshold"].append(result.iters_to_threshold(metric))


def _after_run_checks(counters, args, results) -> None:
    counters["validation.checks"] += len(results)
    counters["validation.failed"] += sum(1 for r in results if not r.passed)


_POST_HOOKS = {
    "optimizer.optimize": _after_optimize,
    "optimizer.spd_project": _after_spd_project,
    "gp_bench.run_benchmark": _after_run_benchmark,
    "validation.run_checks": _after_run_checks,
}
