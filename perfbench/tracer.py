"""Per-layer spans around rispace's functions, installed from outside.

The layers are rispace's modules.  ``install`` wraps every public function
of each module, every private one that another module imports, every public
method and every ``__post_init__`` of its classes, and rebinds each wrapped
name in every ``rispace.*`` namespace, because the modules import each
other's names with ``from .x import y``.  Generator functions are left alone:
their work happens in the caller's loop.

A span records (id, name, start, end, parent id).  Self time is a span's
duration minus the time its child spans cover, summed per layer as the spans
close.  At layer boundaries (a span whose parent belongs to another layer)
the wrapper also reads sizes off the arguments and the result; the time that
takes is kept out of every layer's self time and reported as ``observe_s``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("num", "space", "stepfn", "rearrange", "spaces", "symbols",
          "ergodic", "jsonio", "cli", "examples", "properties")

# counters read at layer boundaries
_PIECES_IN = ("rearrange", "spaces")
# ergodic functions whose third argument is an iterate count (a schedule
# for cesaro_schedule)
_ITERATE_FNS = ("cesaro", "maximal_truncated", "iterate_apply", "weak_type_ratio", "cesaro_schedule")
_INCLUSIVE = {"properties.gen_": "properties.gen_s", "jsonschema.validate": "cli.validate_s"}


def _size(x) -> int:
    """Pieces of a step function, entries of an atom sequence, else 0."""
    if hasattr(x, "vals") and hasattr(x, "cuts"):
        return len(x.vals)
    if hasattr(x, "entries") and hasattr(x, "tail"):
        return len(x.entries)
    return 0


class Tracer:
    def __init__(self, span_cap: int = 200_000):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.dropped = 0
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.inclusive_s = Counter()
        self.max_bits = 0
        self.observe_s = 0.0
        self._next_id = 0
        # frame: [child seconds, layer, span id, inclusive group or None]
        self._stack = [[0.0, "bench", -1, None]]
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        short = name.rsplit(".", 1)[-1]
        group = next((g for prefix, g in _INCLUSIVE.items() if name.startswith(prefix)), None)
        tracer, stack = self, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer._next_id
            tracer._next_id += 1
            # an inclusive group counts only its outermost span
            own_group = group if group and parent[3] != group else None
            frame = [0.0, layer, span_id, group or parent[3]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                tracer.self_s[layer] += dur - frame[0]
                tracer.calls[layer] += 1
                if own_group:
                    tracer.inclusive_s[own_group] += dur
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((span_id, name_idx, t0, t1, parent[2]))
                else:
                    tracer.dropped += 1
            if parent[1] != layer:
                tracer._observe(layer, short, args, result)
                parent[0] += perf_counter() - t1
            return result

        return traced

    def span(self, name: str, fn):
        """Run fn() as a root span of the benchmark's own layer."""
        return self.wrap("bench", name, fn)()

    # -- counters at layer boundaries ---------------------------------------

    def _observe(self, layer, short, args, result):
        t = perf_counter()
        if layer in _PIECES_IN:
            self.counts[f"{layer}.pieces_in"] += sum(_size(a) for a in args)
        elif layer == "stepfn":
            self.counts["stepfn.pieces_out"] += _size(result)
        elif layer == "ergodic" and short in _ITERATE_FNS and len(args) > 2:
            self.counts["ergodic.iterates"] += max(args[2]) if short == "cesaro_schedule" else args[2]
        elif layer == "jsonio" and short in ("loads", "dumps"):
            self.counts["jsonio.bytes"] += len(args[0] if short == "loads" else result)
        self._scan(result, 3)
        self.observe_s += perf_counter() - t

    def _scan(self, x, depth: int) -> None:
        """Record Fraction bit lengths and float values inside a result."""
        if isinstance(x, Fraction):
            bits = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
            if bits > self.max_bits:
                self.max_bits = bits
        elif isinstance(x, float):
            if math.isfinite(x):
                self.counts["num.float_results"] += 1
        elif depth and isinstance(x, (tuple, list)):
            for item in x:
                self._scan(item, depth - 1)
        elif depth and dataclasses.is_dataclass(x) and not isinstance(x, type):
            for field in dataclasses.fields(x):
                self._scan(getattr(x, field.name), depth - 1)

    # -- installing the wrappers --------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if not self._patches:
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build_patches(self) -> list[tuple]:
        import jsonschema

        modules = {layer: importlib.import_module(f"rispace.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items() if n == "rispace" or n.startswith("rispace.")]
        imported = {id(v) for ns in namespaces for v in vars(ns).values() if inspect.isfunction(v)
                    and v.__module__ != ns.__name__}
        patches, wrapped = [], {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj) and (
                        not attr.startswith("_") or id(obj) in imported):
                    wrapped[id(obj)] = (obj, self.wrap(layer, f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for name, method in list(vars(obj).items()):
                        if inspect.isfunction(method) and not inspect.isgeneratorfunction(method) and (
                                name == "__post_init__" or not name.startswith("_")):
                            wrapper = self.wrap(layer, f"{layer}.{obj.__name__}.{name}", method)
                            patches.append((obj, name, method, wrapper))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    patches.append((ns, attr, *wrapped[id(obj)]))
        validate = jsonschema.validate
        patches.append((jsonschema, "validate", validate, self.wrap("cli", "jsonschema.validate", validate)))
        return patches

    # -- results -------------------------------------------------------------

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans, "dropped": self.dropped}
