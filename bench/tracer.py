"""Per-layer spans and work counters, installed from outside the program.

``Tracer.install(tr)`` wraps, in a worker process that has imported the
``treeramsey`` package:

* every public function of a layer module, in every module namespace that
  holds it (the defining module, the package, and each module that did
  ``from .x import f``), so calls looked up by global name at call time
  go through the wrapper;
* the public methods of the classes those modules define, plus the
  ``Ordinal`` comparison and arithmetic operators.

A wrapper opens a span only when the call crosses from one layer into
another (or from the benchmark into a layer); a call from inside the same
layer goes straight through.  A generator returned across a boundary is
wrapped too, so that its iteration is charged to the layer that made it.
Spans are folded into per-layer totals in memory: span count, self time
(span time minus the time of the spans it caused) and work counters.
Properties, ``__eq__``/``__hash__`` and other structural dunders are left
alone; they are called implicitly by dicts and sets at every lookup.
"""

from __future__ import annotations

import sys
import types
from functools import cached_property
from time import perf_counter

LAYERS = ("ordinal", "tree_core", "canonical", "rules", "stabilize", "transfinite", "verify")
ORDINAL_OPERATORS = ("__lt__", "__le__", "__gt__", "__ge__",
                     "__add__", "__radd__", "__mul__", "__rmul__")
PIECE_METHODS = ("contains", "tau_declared", "children")
COUNTERS = (
    "ordinal.constructed", "canonical.truncate_nodes", "rules.evals",
    "transfinite.window_nodes", "transfinite.window_pairs", "transfinite.piece_calls",
    "tree_core.trees_built", "tree_core.nodes_built",
    "verify.search_nodes", "verify.search_pruned",
)


class Tracer:
    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        # open spans: layer names and, per span, start time and child time
        self._layer: list[str | None] = [None]
        self._start: list[float] = [0.0]
        self._child: list[float] = [0.0]
        self._wrapped: dict[tuple, object] = {}
        self._classes: set[type] = set()

    # -- spans -------------------------------------------------------------------

    def _enter(self, layer: str) -> None:
        self.calls[layer] += 1
        self._layer.append(layer)
        self._child.append(0.0)
        self._start.append(perf_counter())

    def _exit(self) -> None:
        elapsed = perf_counter() - self._start.pop()
        layer = self._layer.pop()
        self.self_s[layer] += elapsed - self._child.pop()
        self._child[-1] += elapsed

    def wrap(self, fn, layer: str, before=None, after=None):
        """``before(args)`` and ``after(result)`` update counters on every
        call, whether or not it crosses a boundary."""
        key = (fn, before, after)
        if key in self._wrapped:
            return self._wrapped[key]
        current = self._layer

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            if current[-1] == layer:
                out = fn(*args, **kwargs)
            else:
                self._enter(layer)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._exit()
                if isinstance(out, types.GeneratorType):
                    out = self._iterate(out, layer)
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        self._wrapped[key] = traced
        return traced

    def _iterate(self, gen, layer: str):
        while True:
            self._enter(layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit()
            yield item

    # -- installation ------------------------------------------------------------------

    def install(self, tr) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == tr.__name__ or name.startswith(tr.__name__ + "."))]
        layer_of = {f"{tr.__name__}.{layer}": layer for layer in LAYERS}
        hooks = self._hooks(tr)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) not in layer_of:
                    continue
                layer = layer_of[obj.__module__]
                if isinstance(obj, types.FunctionType):
                    before, after = hooks.get(obj, (None, None))
                    setattr(module, name, self.wrap(obj, layer, before, after))
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._install_class(obj, layer, hooks)
        # validated constructions and materialized trees, counted on every call
        self._count_init(tr.Ordinal, lambda obj: self._bump("ordinal.constructed"))
        self._count_init(tr.FiniteTree, self._tree_built)
        return self

    def _install_class(self, cls, layer, hooks) -> None:
        if cls in self._classes:
            return
        self._classes.add(cls)
        piece = getattr(sys.modules[cls.__module__], "Piece", None)
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") or (
                cls.__name__ == "Ordinal" and name in ORDINAL_OPERATORS)
            if not public:
                continue
            if isinstance(attr, types.FunctionType):
                before, after = hooks.get(attr, (None, None))
                if piece is not None and issubclass(cls, piece) and name in PIECE_METHODS:
                    before = self._counter("transfinite.piece_calls")
                setattr(cls, name, self.wrap(attr, layer, before, after))
            elif isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(self.wrap(attr.__func__, layer)))
            elif isinstance(attr, cached_property):
                prop = cached_property(self.wrap(attr.func, layer))
                prop.__set_name__(cls, name)
                setattr(cls, name, prop)

    def _count_init(self, cls, count) -> None:
        original = cls.__post_init__

        def post_init(obj):
            count(obj)
            original(obj)

        cls.__post_init__ = post_init

    # -- counters ------------------------------------------------------------------------

    def _bump(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def _counter(self, key: str):
        return lambda args: self._bump(key)

    def _tree_built(self, tree) -> None:
        self._bump("tree_core.trees_built")
        self._bump("tree_core.nodes_built", len(tree.ids))

    def _hooks(self, tr) -> dict:
        def truncated(out):
            self._bump("canonical.truncate_nodes", len(out.tree.ids))

        def window(out):
            tree, _ = out
            self._bump("transfinite.window_nodes", len(tree.ids))
            self._bump("transfinite.window_pairs", sum(len(a) for a in tree.anc))

        def searched(report):
            self._bump("verify.search_nodes", report.explored)
            self._bump("verify.search_pruned", report.pruned)

        return {
            tr.canonical.truncate: (None, truncated),
            tr.transfinite.piece_window: (None, window),
            tr.verify.max_monochromatic_rank: (None, searched),
            tr.verify.max_monochromatic_rank_nodes: (None, searched),
            tr.rules.RuleColoring.value: (self._counter("rules.evals"), None),
        }

    # -- report ---------------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of everything traced so far, keyed as in
        BENCHMARK.json."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counts)
        pruned = out.pop("verify.search_pruned")
        nodes = out["verify.search_nodes"]
        out["verify.pruned_frac"] = pruned / nodes if nodes else 0.0
        return out
