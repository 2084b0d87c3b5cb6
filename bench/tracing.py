"""Spans and counters around the public functions of each basicforms layer.

The tracer patches the library from the outside: every public function of a
layer module, and the public methods and arithmetic operators of its
classes, is replaced by a wrapper at every module attribute that binds it
(``from ... import`` copies included), and restored afterwards.  Nothing
under ``src/`` changes.

A span's self time is its duration minus the time of its child spans.  The
wrapper's own bookkeeping is charged to ``overhead_s`` rather than to the
caller, so the layer self times add up to the traced time minus overhead.
``scalars`` gets counters only, installed in a separate pass: a span per
call would swamp its millions of calls per job, so scalar arithmetic time
stays inside the self time of the layer that calls it.

Everything runs in one thread of one process, so no work ever waits for a
layer and no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPANNED_LAYERS = (
    "polynomials",
    "linalg",
    "forms",
    "actions",
    "solver",
    "stages",
    "orbifolds",
    "symplectic",
    "plots",
    "expressions",
    "jobs",
    "cli",
)

# Private methods that are the arithmetic of a layer's value types get spans
# too.  Constructors, __eq__ and __hash__ do not: they are called implicitly,
# hundreds of thousands of times per job, and a span each would inflate the
# self time of whichever layer builds or hashes the values.
OPERATORS = frozenset(
    {
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "__truediv__", "__pow__",
    }
)

# Elimination entry points.  Shapes are recorded for the constraint and span
# eliminations only, not for the small determinants every AffineMap runs.
ELIMINATIONS = frozenset({"linalg.rank", "linalg.rref", "linalg.kernel_basis"})
SMALL_ELIMINATIONS = frozenset({"linalg.determinant", "linalg.invert"})

SPAN_CAP = 50_000


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "basicforms" or name.startswith("basicforms."))]


class Tracer:
    """Installs wrappers, accumulates one pass of spans and counters."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.job = -1
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Forget the last pass; installed wrappers keep working."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.spans.clear()
        self._stack.clear()
        self.overhead_s = 0.0
        self._next_id = 0
        self._elimination_depth = 0

    # --- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install_spans(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in SPANNED_LAYERS:
            module = importlib.import_module(f"basicforms.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._span(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for module in _package_modules():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(module, name, wrappers[id(obj)])

        from basicforms.actions import AffineMap

        build = vars(AffineMap)["__init__"]
        counts = self.counts

        @functools.wraps(build)
        def counted_build(map_self, *args, **kwargs):
            counts["actions.maps_built"] += 1
            build(map_self, *args, **kwargs)

        self._patch(AffineMap, "__init__", counted_build)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._span(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._span(raw, name, layer))

    def install_counters(self) -> None:
        from basicforms.scalars import Scalar

        counts = self.counts

        def counted(fn, key):
            @functools.wraps(fn)
            def wrapper(self, other):
                counts[key] += 1
                return fn(self, other)
            return wrapper

        mul = vars(Scalar)["__mul__"]

        @functools.wraps(mul)
        def counted_mul(self, other):
            counts["mul"] += 1
            if self.uses_parameter or (isinstance(other, Scalar) and other.uses_parameter):
                counts["mul_param"] += 1
            return mul(self, other)

        coerce = vars(Scalar)["of"].__func__

        def counted_of(value):
            counts["coerce"] += 1
            return coerce(value)

        self._patch(Scalar, "__mul__", counted_mul)
        self._patch(Scalar, "__rmul__", counted_mul)
        for attr, key in (("__truediv__", "div"), ("__rtruediv__", "div"),
                          ("__add__", "add"), ("__radd__", "add")):
            self._patch(Scalar, attr, counted(vars(Scalar)[attr], key))
        self._patch(Scalar, "of", staticmethod(counted_of))

    # --- spans ---------------------------------------------------------------

    def _span(self, fn, name: str, layer: str):
        tracer = self
        is_elimination = name in ELIMINATIONS
        is_small = name in SMALL_ELIMINATIONS
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent_id = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            outermost = (is_elimination or is_small) and tracer._elimination_depth == 0
            if is_elimination or is_small:
                tracer._elimination_depth += 1
            result = returned = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                if is_elimination or is_small:
                    tracer._elimination_depth -= 1
                stack.pop()
                duration = end - start
                tracer.self_s[layer] += duration - frame[0]
                tracer.self_s[name] += duration - frame[0]
                tracer.calls[name] += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((tracer.job, span_id, parent_id, name, start, end))
                if outermost:
                    tracer.counts["linalg.calls"] += 1
                    if is_elimination and returned:
                        _record_elimination(tracer.counts, name, args[0], result)
                if hook is not None and returned:
                    hook(tracer.counts, args, result)
                left = perf_counter()
                tracer.overhead_s += (left - entered) - duration
                if stack:
                    stack[-1][0] += left - entered

        return wrapper

    # --- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of one span-traced pass."""
        c = self.counts
        # The job loop calls run_job directly, so cli has no metric here; its
        # start-up cost is what setup_s measures.
        out = {
            f"{layer}.self_s": self.self_s.get(layer, 0.0)
            for layer in SPANNED_LAYERS
            if layer != "cli"
        }
        cells = c["linalg.cells"]
        out.update(
            {
                "linalg.calls": c["linalg.calls"],
                "linalg.rows": c["linalg.rows"],
                "linalg.cols": c["linalg.cols"],
                "linalg.nonzeros": c["linalg.nonzeros"],
                "linalg.density": c["linalg.nonzeros"] / cells if cells else 0.0,
                "linalg.rank_share": c["linalg.rank"] / c["linalg.rows"] if c["linalg.rows"] else 0.0,
                "polynomials.substitute.calls": self.calls["polynomials.Polynomial.substitute"],
                "polynomials.add.calls": self.calls["polynomials.Polynomial.__add__"],
                "forms.pullback.calls": self.calls["forms.pullback"],
                "forms.eval_form.calls": self.calls["forms.eval_form"],
                "actions.compose.calls": self.calls["actions.AffineMap.compose"],
                "actions.maps_built": c["actions.maps_built"],
                "solver.operator_block.self_s": self.self_s.get("solver.operator_block", 0.0),
                "solver.coordinates.calls": self.calls["solver.Window.coordinates"],
                "solver.reynolds.self_s": self.self_s.get("solver.reynolds_average", 0.0),
                "plots.samples": c["plots.samples"],
                "jobs.errors": c["jobs.errors"],
            }
        )
        return out

    def scalar_metrics(self) -> dict[str, float]:
        """Counter values of one counting pass."""
        c = self.counts
        return {
            "scalars.mul": c["mul"],
            "scalars.div": c["div"],
            "scalars.add": c["add"],
            "scalars.coerce": c["coerce"],
            "scalars.param_share": c["mul_param"] / c["mul"] if c["mul"] else 0.0,
        }


def _record_elimination(counts: Counter, name: str, matrix, result) -> None:
    # Bookkeeping must not open spans of its own, so use the unwrapped method.
    row_lists = type(matrix).row_lists
    row_lists = getattr(row_lists, "__wrapped__", row_lists)
    rows, cols = matrix.rows, matrix.cols
    if name == "linalg.kernel_basis":
        found = cols - len(result)
    elif name == "linalg.rank":
        found = result
    else:
        found = len(result[1])
    counts["linalg.rows"] += rows
    counts["linalg.cols"] += cols
    counts["linalg.cells"] += rows * cols
    counts["linalg.rank"] += found
    counts["linalg.nonzeros"] += sum(not e.is_zero for row in row_lists(matrix) for e in row)


def _count_samples(counts: Counter, args, result) -> None:
    counts["plots.samples"] += args[0].num_samples


def _count_errors(counts: Counter, args, result) -> None:
    if result[0].get("status") == "error":
        counts["jobs.errors"] += 1


_HOOKS = {
    "plots.pullback_along_plot": _count_samples,
    "jobs.run_job": _count_errors,
}
