"""Span tracer that times bellbound's layers from outside.

``Tracer.install`` wraps the public functions of each module of
``src/bellbound`` (plus a few private ones the CLI and ``verify`` call
directly) and rebinds every module attribute that refers to an original,
because a module that imported a function by name holds its own reference;
``remove`` restores the originals, so traced and untraced runs can alternate.
Each call records a span (name, start, end, parent) in flat in-memory arrays;
``write`` saves them when the run ends, and ``metrics`` derives per-call
times, counts and each layer's self time from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("core", "factories", "knowledge", "canonical", "expsim", "verify", "io", "cli")

# Private callables worth a span, and the span name each gets.  The CLI's CSV
# rendering is io's job (it formats with io.format_float), so it is booked
# there; scipy's minimize gets its own layer and reports evaluations.
EXTRA_SPANS = {
    ("factories", "_random_state_from_rng"): "factories._random_state_from_rng",
    ("cli", "_csv_text"): "io.render_csv",
    ("knowledge", "minimize"): "scipy.minimize",
}
# Called once per rendered float: a span each would cost more than the call.
UNTRACED = {("io", "format_float")}
# Counts read from return values: span name -> (counter, count of one result).
RESULT_COUNTS = {
    "scipy.minimize": ("nfev", lambda result: int(result.nfev)),
    "canonical.filter_normal_form": ("filter_iterations", lambda result: result.iterations),
    "io.render_csv": ("bytes_out", lambda text: len(text.encode())),
    "io.dumps_json": ("bytes_out", lambda text: len(text.encode())),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._bindings: list[tuple] = []
        self.counts: Counter[str] = Counter()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        counter, count_of = RESULT_COUNTS.get(name, (None, None))
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter] += count_of(result)
            return result

        return traced

    def _find_bindings(self) -> list[tuple]:
        """(module, attribute, original, wrapper) for every name to rebind."""
        modules = {layer: importlib.import_module(f"bellbound.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or (layer, attr) in UNTRACED:
                    continue
                name = EXTRA_SPANS.get((layer, attr))
                if name is None:
                    if attr.startswith("_") or value.__module__ != module.__name__:
                        continue
                    name = f"{layer}.{attr}"
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
        return [
            (module, attr, value, wrappers[id(value)])
            for module in (sys.modules["bellbound"], *modules.values())
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and id(value) in wrappers
        ]

    def install(self) -> None:
        """Route every traced name through its wrapper."""
        if not self._bindings:
            self._bindings = self._find_bindings()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Restore the original functions; recorded spans are kept."""
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def write(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer figures; counts and self times are per operation."""
        import numpy as np

        name = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = duration - children
        count = len(self.names)
        calls = np.bincount(name, minlength=count)
        inclusive = np.bincount(name, weights=duration, minlength=count)
        exclusive = np.bincount(name, weights=self_time, minlength=count)
        ops = max(ops, 1)

        def stat(span: str):
            if span not in self.names:
                return 0, 0.0, 0.0
            i = self.names.index(span)
            return int(calls[i]), float(inclusive[i]), float(exclusive[i])

        out: dict[str, float] = {}
        for span in self.names:
            n, total, _ = stat(span)
            out[f"{span}.calls"] = n / ops
            out[f"{span}.us_per_call"] = total / n * 1e6 if n else 0.0
        layer_of = [span.split(".", 1)[0] for span in self.names]
        for layer in (*LAYERS, "scipy"):
            mask = np.array([owner == layer for owner in layer_of], dtype=bool)
            out[f"{layer}.self_s"] = float(exclusive[mask].sum()) / ops if mask.any() else 0.0
        n, total, _ = stat("knowledge.optimize_excess_sum")
        out["knowledge.optimize_excess_sum.ms_per_call"] = total / n * 1e3 if n else 0.0
        out["knowledge.optimize_excess_sum.nfev"] = self.counts["nfev"] / n if n else 0.0
        n, _, _ = stat("canonical.filter_normal_form")
        out["canonical.filter_normal_form.iterations"] = (
            self.counts["filter_iterations"] / n if n else 0.0
        )
        for span in ("expsim.run_sweep_experiment", "verify.fuzz_bounds"):
            out[f"{span}.self_s"] = stat(span)[2] / ops
        out["io.render_s"] = (stat("io.render_csv")[1] + stat("io.dumps_json")[1]) / ops
        out["io.bytes_out"] = self.counts["bytes_out"] / ops
        out["trace.spans"] = len(duration) / ops
        return out
