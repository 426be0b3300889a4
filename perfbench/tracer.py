"""Per-layer tracing of starquant, installed entirely from outside the package.

``Tracer.install`` wraps every public function of each layer module at every
place that binds it (``cli`` and ``verify`` import ``star``, ``decompose``,
``closed_star_exponential`` ... by name), and every public or operator
method of the layer classes on the class itself.  ``uninstall`` puts the
originals back.

Accounting: a call that enters a layer from another layer opens a frame.
When the frame closes, its duration minus the time of the frames opened
inside it is that layer's self time; the duration of the outermost frame of
a layer is its busy time.  A call from a layer into itself only counts
(except the few functions timed on their own, listed in ``INCLUSIVE``), so
the hot scalar tower pays as little as possible.  Every frame outside the
two hot layers is also kept as a span (span id, parent span id, job span
id, name, start, end); calls into ``scalars`` and ``poly`` -- hundreds of
thousands per job -- are aggregated per layer instead, as count and summed
time.
"""

from __future__ import annotations

import functools
import sys
import time
from types import FunctionType

LAYERS = (
    "scalars", "poly", "star", "series", "matrices",
    "grading", "parsing", "cli", "verify",
)
_MODULES = {f"starquant.{layer}": layer for layer in LAYERS}
# layers whose calls are only aggregated, never kept as spans
AGGREGATED = ("scalars", "poly")

# functions whose inclusive time is reported on its own
INCLUSIVE = {
    "star.ode_star_exponential": "star.oracle_s",
    "TruncSeries.exp": "series.exp_s",
    "TruncSeries.inv_sqrt": "series.inv_sqrt_s",
    "MatSeries.inverse": "matrices.matseries_inverse_s",
    "MatSeries.det": "matrices.matseries_det_s",
    "grading.check_jacobi": "grading.validator_s",
    "grading.check_lambda_relation": "grading.validator_s",
}

# call counters reported on their own
COUNTED = {
    "MultiPoly.__mul__": "poly.mul_calls",
    "TruncSeries.__mul__": "series.mul_calls",
    "matrices.closed_star_exponential": "matrices.closed_form_calls",
    "grading.decompose": "grading.decompose_calls",
}

# methods that are never worth a frame: they only raise or format for humans
_SKIP_METHODS = {"__setattr__", "__repr__"}

_clock = time.perf_counter_ns


class Tracer:
    """Collects per-layer counts, busy and self time, and spans."""

    def __init__(self):
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.busy_ns = dict.fromkeys(LAYERS, 0)
        self.depth = dict.fromkeys(LAYERS, 0)
        self.inclusive_ns = dict.fromkeys(INCLUSIVE.values(), 0)
        self.calls = {}  # qualified name -> (layer, [count])
        self.poly_max_terms = 0
        self.top_order_terms = 0
        self.spans = []
        self.job_ns = 0
        self._stack = [[None, 0, 0]]  # frames: [layer, child_ns, span_id]
        self._job = 0  # span id of the running job
        self._next_span = 1
        self._patches = []

    # -- results ---------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(
            c[0] for name, (lay, c) in self.calls.items() if lay == layer
        )

    def count(self, name: str) -> int:
        return self.calls[name][1][0] if name in self.calls else 0

    # -- jobs --------------------------------------------------------------

    def run_job(self, key: str, fn):
        """Run ``fn()`` as one job with its own span id; returns its result."""
        span = self._next_span
        self._next_span += 1
        self._job = span
        self._stack.append([None, 0, span])
        start = _clock()
        try:
            return fn()
        finally:
            end = _clock()
            self._stack.pop()
            self._job = 0
            self.job_ns += end - start
            self.spans.append((span, 0, span, "job " + key, start, end))

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "starquant" or name.startswith("starquant.")]
        for modname, layer in _MODULES.items():
            module = sys.modules[modname]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, FunctionType) and obj.__module__ == modname:
                    wrapped = self._wrap(obj, layer, f"{layer}.{name}")
                    for site in modules:
                        if vars(site).get(name) is obj:
                            self._patch(site, name, wrapped)
                elif isinstance(obj, type) and obj.__module__ == modname:
                    self._wrap_class(obj, layer)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, BaseException):
            return
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") or (
                name.startswith("__") and name.endswith("__")
            )
            if not public or name in _SKIP_METHODS:
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(attr, FunctionType):
                self._patch(cls, name, self._wrap(attr, layer, qual))
            elif isinstance(attr, (classmethod, staticmethod)):
                inner = self._wrap(attr.__func__, layer, qual)
                self._patch(cls, name, type(attr)(inner))

    def _wrap(self, fn, layer: str, qual: str):
        counter = self.calls.setdefault(qual, (layer, [0]))[1]
        inclusive = INCLUSIVE.get(qual)
        spans = None if layer in AGGREGATED else self.spans
        observe = None
        if layer == "poly":
            observe = self._observe_poly
        elif qual == "star.ode_star_exponential":
            observe = self._observe_oracle
        stack = self._stack
        depth = self.depth
        self_ns = self.self_ns
        busy_ns = self.busy_ns
        inclusive_ns = self.inclusive_ns
        tracer = self

        def wrapper(*args, **kwargs):
            counter[0] += 1
            parent = stack[-1]
            if parent[0] is layer and inclusive is None:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            span = tracer._next_span
            tracer._next_span = span + 1
            frame = [layer, 0, span]
            stack.append(frame)
            outer = depth[layer] == 0
            depth[layer] += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                depth[layer] -= 1
                elapsed = end - start
                self_ns[layer] += elapsed - frame[1]
                parent[1] += elapsed
                if outer:
                    busy_ns[layer] += elapsed
                if inclusive is not None:
                    inclusive_ns[inclusive] += elapsed
                if spans is not None:
                    spans.append((span, parent[2], tracer._job, qual, start, end))
            if observe is not None:
                observe(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _observe_poly(self, result) -> None:
        if type(result).__name__ == "MultiPoly" and len(result.terms) > self.poly_max_terms:
            self.poly_max_terms = len(result.terms)

    def _observe_oracle(self, result) -> None:
        top = len(result.coeffs[-1].terms)
        if top > self.top_order_terms:
            self.top_order_terms = top
