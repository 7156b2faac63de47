"""Per-layer tracing of isokit, installed from the benchmark's own files.

``install`` wraps every public function of each package module, plus the
public methods, ``__init__`` and ``__call__`` of the classes defined there,
and re-binds every module attribute that names a wrapped function, so names
re-bound by ``from .x import y`` (in other modules and in the package
namespace) are traced too.  The package source is not edited.

A layer is a package module.  Each wrapped call is a span (name, start, end,
parent span, op id); spans are kept in memory up to ``SPAN_CAP`` and written
out at the end, while counts and times cover every call.  A layer's self
time is the duration of its spans minus the time of the wrapped spans nested
directly inside them.  Time spent in unwrapped code (private helpers,
evaluator closures, ODE right-hand sides) therefore counts toward the
nearest wrapped caller.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("core", "quadrature", "curves", "variational", "surfaces", "singular", "odes", "cli")
COUNTERS = (
    "curves.jet_evals",
    "surfaces.jet_evals",
    "quadrature.points",
    "odes.rk4_steps",
    "odes.picard_iters",
    "cli.bytes_written",
    "cli.files_written",
)
# Calls whose count is a kernel counter.
_JET_CALLS = {"curves.PlaneCurve.at": "curves.jet_evals", "surfaces.ParamSurface.at": "surfaces.jet_evals"}
SPAN_CAP = 100_000


class Tracer:
    """Span stack, per-layer totals and counters of one traced run."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.names: list[str] = []
        self.name_calls: list[int] = []
        self.spans: list[tuple] = []  # (id, name id, start, end, parent id, op id)
        self.next_id = 0
        self.stack: list[list] = []  # [child time, span id] per open span

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.name_calls.append(0)
        return len(self.names) - 1

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        counters = dict(self.counters)
        for name, calls in zip(self.names, self.name_calls):
            if name in _JET_CALLS:
                counters[_JET_CALLS[name]] += calls
        for name in COUNTERS:
            out[name] = (counters[name], "count")
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "calls_by_name": dict(zip(self.names, self.name_calls)),
                    "columns": ["id", "name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "spans_not_kept": max(0, self.next_id - len(self.spans)),
                },
                fh,
            )


def _wrap(tracer: Tracer, layer: str, name: str, fn, after=None):
    name_id = tracer.name_id(name)
    stack, spans, clock = tracer.stack, tracer.spans, time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span_id = tracer.next_id
        tracer.next_id += 1
        parent = stack[-1] if stack else None
        frame = [0.0, span_id]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.errors[layer] += 1
            raise
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            tracer.self_s[layer] += duration - frame[0]
            tracer.calls[layer] += 1
            tracer.name_calls[name_id] += 1
            if parent is not None:
                parent[0] += duration
            if span_id < SPAN_CAP:
                spans.append(
                    (span_id, name_id, start, end, -1 if parent is None else parent[1], tracer.op_id)
                )
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


def _quadrature_points(fn, sizes, defaults):
    """After-hook adding the sample points implied by the panel arguments."""
    sig = inspect.signature(fn)

    def after(tracer, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        points = 1
        for size in sizes:
            n = bound.arguments.get(size)
            n = defaults() if n is None else int(n)
            points *= n + n % 2 + 1
        tracer.counters["quadrature.points"] += points

    return after


def _iterations(counter):
    def after(tracer, args, kwargs, result):
        tracer.counters[counter] += result.iterations

    return after


def install(tracer: Tracer):
    """Wrap the package's public callables; returns a function that undoes it."""
    package = importlib.import_module("isokit")
    modules = {layer: importlib.import_module(f"isokit.{layer}") for layer in LAYERS}
    quad = modules["quadrature"]
    after_hooks = {
        "quadrature.simpson": _quadrature_points(quad.simpson, ("panels",), quad.default_panels_1d),
        "quadrature.simpson_2d": _quadrature_points(
            quad.simpson_2d, ("panels_u", "panels_v"), quad.default_panels_2d
        ),
        "odes.integrate": _iterations("odes.rk4_steps"),
        "odes.picard_solve_degenerate": _iterations("odes.picard_iters"),
    }
    undo = []
    wrapped = {}  # id(original function) -> wrapper

    def wrap(layer, qualname, fn):
        name = f"{layer}.{qualname}"
        wrapped[id(fn)] = _wrap(tracer, layer, name, fn, after_hooks.get(name))
        return wrapped[id(fn)]

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                wrap(layer, attr, obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for meth, val in list(vars(obj).items()):
                    if meth.startswith("_") and meth not in ("__init__", "__call__"):
                        continue
                    if inspect.isfunction(val):
                        new = wrap(layer, f"{attr}.{meth}", val)
                    elif isinstance(val, (classmethod, staticmethod)) and inspect.isfunction(val.__func__):
                        new = type(val)(wrap(layer, f"{attr}.{meth}", val.__func__))
                    else:
                        continue
                    undo.append((obj, meth, val))
                    setattr(obj, meth, new)

    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
