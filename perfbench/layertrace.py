"""Per-layer tracing of the wcs package from outside it.

Each layer is one module of the package.  `Tracer.install` wraps every
public function of each layer and rebinds the wrapper wherever the package
holds the original: in the defining module and in every module that did
`from .factorials import log_box` and so bound the name at import.  Nothing
in `src/` changes; `uninstall` puts the originals back.

A call into a layer from outside it opens a frame.  Calls from a layer into
itself pass straight through, so `calls` counts layer boundary crossings.
`busy_s` is the time under the outermost frame of a layer (a layer re-entered
through another, as moments -> quadrature -> moments, is not counted twice),
and `self_s` subtracts the frames of other layers opened inside it.  The
tracer keeps totals only, no per-call records.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("gammafn", "factorials", "algebra", "series", "coherent", "quadrature", "moments", "cli")
WEIGHT_FUNCTIONS = frozenset({"weight_wright", "weight_one_minus_beta", "weight_ml_closed_form"})
QUADRATURE_ENTRIES = frozenset({"integrate_finite", "integrate_zero_inf", "integrate_zero_inf_exp"})

# frame slots
_LAYER, _CHILD, _COLD = 0, 1, 2


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


class Tracer:
    """Counters and layer times for the calls made while installed."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._rebound: list[tuple] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import importlib

        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"wcs.{layer}")
            for name, fn in _public_functions(module):
                originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "wcs" or modname.startswith("wcs.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._rebound:
            setattr(module, attr, value)
        self._rebound.clear()

    # ------------------------------------------------------------ wrappers

    def _wrap(self, layer: str, name: str, fn):
        stack, depth, clock = self.stack, self.depth, time.perf_counter
        calls, busy, self_time, counts = self.calls, self.busy, self.self_time, self.counts
        is_weight = name in WEIGHT_FUNCTIONS
        is_quad = name in QUADRATURE_ENTRIES
        is_log_gamma = name == "log_gamma"
        is_log_box = name == "log_box"
        tracer = self

        def wrapper(*args, **kwargs):
            top = stack[-1] if stack else None
            if is_log_box and top is not None and top[_LAYER] in ("series", "coherent"):
                counts[top[_LAYER] + ".terms"] += 1
            elif is_log_gamma and top is not None and top[_LAYER] == "factorials":
                top[_COLD] = True
            if is_weight:
                counts["moments.weight_calls"] += 1
            if top is not None and top[_LAYER] == layer:
                return fn(*args, **kwargs)
            if is_quad and args:
                caller = top[_LAYER] if top is not None else "benchmark"
                args = (tracer._integrand(caller, args[0]),) + args[1:]
            frame = [layer, 0.0, False]
            stack.append(frame)
            depth[layer] += 1
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                tracer._count_failure(layer, exc)
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                depth[layer] -= 1
                if depth[layer] == 0:
                    busy[layer] += dur
                self_time[layer] += dur - frame[_CHILD]
                calls[layer] += 1
                if stack:
                    stack[-1][_CHILD] += dur
                if frame[_COLD]:
                    counts["factorials.cold_calls"] += 1
                if is_quad and result is not None:
                    counts["quadrature.panels"] += result.panels

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _integrand(self, caller: str, f):
        """Count integrand evaluations; their time belongs to the caller's layer."""
        stack, depth, clock = self.stack, self.depth, time.perf_counter
        busy, self_time, counts = self.busy, self.self_time, self.counts

        def integrand(points):
            counts["quadrature.integrand_calls"] += 1
            counts["quadrature.integrand_points"] += len(points)
            frame = [caller, 0.0, False]
            stack.append(frame)
            depth[caller] += 1
            t0 = clock()
            try:
                return f(points)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[caller] -= 1
                if depth[caller] == 0:
                    busy[caller] += dur
                self_time[caller] += dur - frame[_CHILD]
                if stack:
                    stack[-1][_CHILD] += dur

        return integrand

    def _count_failure(self, layer: str, exc: Exception) -> None:
        from wcs.errors import ConvergenceError, NumericalRangeError, ParameterError

        if getattr(exc, "_perfbench_counted", False):
            return
        try:
            exc._perfbench_counted = True
        except AttributeError:
            pass
        typed = isinstance(exc, (ConvergenceError, NumericalRangeError, ParameterError))
        self.counts[f"{layer}.failures" if typed else f"{layer}.untyped_failures"] += 1

    # ------------------------------------------------------------ results

    def snapshot(self) -> dict:
        """Raw totals, mergeable across processes with `merge`."""
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }


def merge(total: dict, part: dict) -> dict:
    for key in ("calls", "busy", "self", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    return total


def layer_metrics(raw: dict, import_s: float = 0.0) -> dict:
    """Per-layer metric values, named as in BENCHMARK.json's per_layer list."""
    calls, busy, self_time, counts = (raw.get(k, {}) for k in ("calls", "busy", "self", "counts"))
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        out[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        out[f"{layer}.self_s"] = (self_time.get(layer, 0.0), "s")
        out[f"{layer}.failures"] = (counts.get(f"{layer}.failures", 0), "count")
        out[f"{layer}.untyped_failures"] = (counts.get(f"{layer}.untyped_failures", 0), "count")
    fact_calls = calls.get("factorials", 0)
    cold = counts.get("factorials.cold_calls", 0)
    out["factorials.cold_calls"] = (cold, "count")
    out["factorials.hit_ratio"] = (1.0 - cold / fact_calls if fact_calls else 0.0, "ratio")
    for name in ("series.terms", "coherent.terms", "moments.weight_calls",
                 "quadrature.panels", "quadrature.integrand_calls", "quadrature.integrand_points"):
        out[name] = (counts.get(name, 0), "count")
    icalls = counts.get("quadrature.integrand_calls", 0)
    points = counts.get("quadrature.integrand_points", 0)
    out["quadrature.points_per_call"] = (points / icalls if icalls else 0.0, "count")
    out["cli.import_s"] = (import_s, "s")
    return out
