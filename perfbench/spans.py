"""Spans around the calls into each layer of newton_calc.

``Tracer.install`` replaces every public function of the layer modules
(the names in each module's ``__all__``) with a wrapper, under every name
the package's modules import it by.  Each call records a span: id, parent
span, layer, function name, start and end.  Spans stay in memory until the
run writes them out.  Start and end are CPU times of the process
(``harness.clock``), unscaled.  A layer's self time is the
duration of its spans minus the time covered by their child spans.

Counts are taken at the same boundaries from what the wrapped functions
return: limit steps from ``LimitResult.steps_used`` (or the
``NonConvergent`` that ends a schedule), refinement levels, pieces and
node evaluations from each ``PiecewisePrimitive``, and 2-D integrand
evaluations from ``BivariateFunction.grid`` and ``__call__``.

A builder call whose integrand is defined in another layer (fubini's inner
integrals, wallis's cos^n, the Laplace pieces) evaluates that integrand
inside a span of the integrand's own layer, so the 2-D shared mesh counts
as fubini time and not as builder time.  Integrands the benchmark supplies
belong to no layer and count toward the layer that evaluates them.

The tracer assumes one thread, which is how the benchmark drives the
program.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict

from harness import clock

LAYERS = ("core", "engine", "builder", "fubini", "sums", "wallis", "laplace")


def _count_limit(counts, out):
    steps = getattr(out, "steps_used", None)
    if isinstance(steps, int):
        counts["core.limit_steps"] += steps


def _count_build(counts, out):
    level = getattr(out, "refinement_level", None)
    pieces = getattr(out, "piece_count", None)
    if isinstance(level, int) and isinstance(pieces, int):
        counts["builder.levels"] += level
        counts["builder.pieces"] += pieces
        # one evaluation per mesh node: nodes are cached across levels
        counts["builder.evals"] += pieces + 1


_COUNTERS = {
    ("core", "one_sided_limit"): _count_limit,
    ("core", "limit_at_infinity"): _count_limit,
    ("builder", "build_primitive"): _count_build,
}


def _layer_of(fn):
    module = getattr(fn, "__module__", None) or ""
    layer = module.rpartition(".")[2]
    return layer if module == f"newton_calc.{layer}" and layer in LAYERS else None


class Tracer:
    def __init__(self) -> None:
        self.spans = []          # [id, parent, layer, name, start, end]
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _spanned_integrand(self, f):
        """f with its callables in spans of the layer that defined them."""
        fields = {}
        for attr in ("fn", "vector_fn"):
            fn = getattr(f, attr, None)
            layer = _layer_of(fn)
            if layer is not None and layer != "builder":
                fields[attr] = self._wrap(layer, getattr(fn, "__qualname__", attr), fn)
        return dataclasses.replace(f, **fields) if fields else f

    def _wrap(self, layer, name, fn):
        counter = _COUNTERS.get((layer, name))
        spans, counts, stack = self.spans, self.counts, self._stack
        integrand_first = (layer, name) == ("builder", "build_primitive")

        def wrapper(*args, **kwargs):
            if integrand_first and args and dataclasses.is_dataclass(args[0]):
                args = (self._spanned_integrand(args[0]),) + args[1:]
            rec = [len(spans), stack[-1] if stack else -1, layer, name,
                   clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:   # counted, then re-raised unchanged
                out = exc
                raise
            finally:
                rec[5] = clock()
                stack.pop()
                if counter is not None:
                    counter(counts, out)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions wherever the package binds them."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"newton_calc.{layer}"]
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if (callable(fn) and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == module.__name__):
                    originals[id(fn)] = self._wrap(layer, name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "newton_calc" and not mod_name.startswith("newton_calc."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, value))
        biv = sys.modules["newton_calc.fubini"].BivariateFunction
        grid, call, counts = biv.grid, biv.__call__, self.counts

        def counted_grid(f, xs, ys):
            out = grid(f, xs, ys)
            counts["fubini.evals"] += out.size
            return out

        def counted_call(f, x, y):
            counts["fubini.evals"] += 1
            return call(f, x, y)

        for attr, value in (("grid", counted_grid), ("__call__", counted_call)):
            self._undo.append((biv, attr, getattr(biv, attr)))
            setattr(biv, attr, value)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo = []

    def summary(self) -> dict:
        """Per-layer calls and self time, plus the boundary counts."""
        child = defaultdict(float)
        for _sid, parent, _layer, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{layer}.calls": 0 for layer in LAYERS}
        out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        for sid, _parent, layer, _name, start, end in self.spans:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (end - start) - child[sid]
        for key in ("fubini.evals", "builder.evals", "builder.levels",
                    "builder.pieces", "core.limit_steps"):
            out[key] = self.counts.get(key, 0)
        out["root_s"] = sum(end - start for _s, parent, _l, _n, start, end
                            in self.spans if parent < 0)
        return out

    def document(self) -> dict:
        return {"fields": ["id", "parent", "layer", "name", "start", "end"],
                "spans": [list(rec) for rec in self.spans]}
