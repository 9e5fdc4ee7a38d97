"""Spans around every public function of the package, installed from outside.

A span is (name, layer, start, end, parent index, raised).  Spans stay in
memory during the traced pass; ``write`` dumps them afterwards.  A layer's
self time is the sum over its spans of duration minus direct children: the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("grids", "model", "onebody", "manybody", "counting", "bounds", "harness", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.entry_steps = 0  # tensor entries times Strang steps evolved
        self.state_bytes = 0  # largest many-body state evolved
        self._stack: list[int] = []
        self._last_error = None
        self._patched: list[tuple] = []

    def _count_evolve_manybody(self, state, spec, T, dt, *args, **kwargs):
        self.entry_steps += state.values.size * round(T / dt)
        self.state_bytes = max(self.state_bytes, state.values.nbytes)

    def _wrap(self, layer: str, name: str, fn):
        counts_work = name == "manybody.evolve_manybody"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_work:
                self._count_evolve_manybody(*args, **kwargs)
            span = [name, layer, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:  # count where it was raised
                    span[5] = True
                    self._last_error = exc
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        """Replace every public function in each namespace that holds it."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"confinedbose.{layer}")
            names = list(getattr(module, "__all__", ())) + (["main"] if layer == "cli" else [])
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[fn] = self._wrap(layer, f"{layer}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "confinedbose" and not mod_name.startswith("confinedbose."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-layer self seconds and errors, per-function calls and seconds."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self = defaultdict(float)
        layer_errors = Counter()
        calls = Counter()
        inclusive = defaultdict(float)
        for i, (name, layer, start, end, parent, raised) in enumerate(self.spans):
            layer_self[layer] += (end - start) - child[i]
            layer_errors[layer] += raised
            calls[name] += 1
            inclusive[name] += end - start
        return {"layer_self_s": dict(layer_self), "layer_errors": dict(layer_errors),
                "calls": dict(calls), "inclusive_s": dict(inclusive)}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "layer", "start", "end", "parent", "raised"],\n'
                     ' "spans": [\n')
            fh.write(",\n".join(json.dumps(s) for s in self.spans))
            fh.write("\n]}\n")
