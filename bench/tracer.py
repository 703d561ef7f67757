"""Layer timing from outside the program.

`Tracer.install()` replaces every public function of the knotdom layer
modules with a timing wrapper, in every module that holds it by name
(`knotbase.alexander_polynomial`, `poset.evaluate_full`, ...), plus the
LaurentPoly methods named in METHODS on the class.  A wrapper keeps a span
stack: self time is a span's duration minus the time of the spans it
encloses, so the self times of all spans under one root add up to the
root's duration.  Spans are kept in memory (Laurent arithmetic is only
aggregated: it runs millions of times) and written out by `dump`.
`uninstall()` puts every original back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("laurent", "diagram", "alexander", "knotbase", "domination", "poset", "cli")

# Span name -> LaurentPoly methods it covers.  Module functions of the
# same name (laurent.mul wraps a * b) are left alone so a product is
# counted once.
METHODS = {"laurent.mul": ("__mul__", "__rmul__"), "laurent.divided_by": ("divided_by",)}

# Spans under these layers are aggregated but not stored one by one.
AGGREGATE_ONLY = ("laurent.",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, int] = {}
        self.root_time = 0.0
        # stored spans: id, parent id (-1 for a root), name index, start, end
        self.span_ids = array("q")
        self.span_parents = array("q")
        self.span_names = array("l")
        self.span_times = array("d")
        self._stack: list[list] = []  # [name index, start, child time, span id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- bookkeeping -----------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._index[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        idx = self._name_index(name)
        stored = not name.startswith(AGGREGATE_ONLY)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [idx, perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self.calls[idx] += 1
                self.total[idx] += duration
                self.self_time[idx] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.root_time += duration
                if stored:
                    self.span_ids.append(span_id)
                    self.span_parents.append(stack[-1][3] if stack else -1)
                    self.span_names.append(idx)
                    self.span_times.append(frame[1])
                    self.span_times.append(end)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self, hooks: dict | None = None) -> None:
        """Wrap the layer modules of the imported knotdom package.  `hooks`
        maps a span name to on_result(args, result), for counters."""
        hooks = hooks or {}
        package = importlib.import_module("knotdom")
        modules = {layer: importlib.import_module(f"knotdom.{layer}") for layer in LAYERS}
        skip = {name.split(".", 1)[1] for name in METHODS}
        wrapped: dict[int, object] = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not (layer == "laurent" and attr in skip)
                ):
                    name = f"{layer}.{attr}"
                    wrapped[id(value)] = self.wrap(name, value, hooks.get(name))
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patch(module, attr, wrapped[id(value)])
        poly = modules["laurent"].LaurentPoly
        for name, attrs in METHODS.items():
            for attr in attrs:
                original = vars(poly).get(attr)
                if original is not None:
                    self._patch(poly, attr, self.wrap(name, original, hooks.get(name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of a span name; zeros if it never ran."""
        idx = self._index.get(name)
        return (0, 0.0) if idx is None else (self.calls[idx], self.self_time[idx])

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for n, t in zip(self.names, self.self_time) if n.startswith(prefix))

    def dump(self, path) -> None:
        spans = [
            [self.span_ids[i], self.span_parents[i], self.span_names[i],
             round(self.span_times[2 * i], 7), round(self.span_times[2 * i + 1], 7)]
            for i in range(len(self.span_ids))
        ]
        summary = {
            name: {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.self_time[i]}
            for i, name in enumerate(self.names)
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "span_fields": ["id", "parent", "name", "start_s", "end_s"],
                "names": self.names,
                "summary": summary,
                "counters": self.counters,
                "spans": spans,
            }, fh)
