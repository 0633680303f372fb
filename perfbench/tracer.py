"""Layer spans and counters recorded from outside the `aldous` package.

Nothing in `aldous` is edited. `Tracer.install` rebinds, in every
`aldous.*` module namespace, each public module-level function of a
layer's module to a wrapper that records a span; the rebinding also
reaches names copied by `from .x import f`. Three more entry points are
wrapped because the library looks them up at call time:
`numpy.linalg.eigvalsh`, `numpy.linalg.eigh` and
`scipy.sparse.linalg.eigsh` (the `eigensolve` layer). The public
methods of `StandardTableau`, which `aldous.yor` calls once per tableau
and transposition, and its constructor are counted, not timed: a span
around each would cost about as much as the call itself, so their time
stays in the `yor` span that calls them.

A span is `[span_id, parent_id, request_id, layer, name, start, end]`
with `time.perf_counter` stamps. Spans are recorded only inside
`request()`, kept in memory, and written out by the caller at the end.
`uninstall` restores every original binding.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYER_MODULES = {
    "cli": "aldous.cli",
    "graphs": "aldous.graphs",
    "tableaux": "aldous.tableaux",
    "yor": "aldous.yor",
    "eigensolve": "aldous.spectral",
    "interchange": "aldous.interchange",
    "conjecture": "aldous.conjecture",
    "reduction": "aldous.reduction",
}
SOLVERS = (
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigh"),
    ("scipy.sparse.linalg", "eigsh"),
)
TABLEAU_METHODS = ("position", "reading_word", "swap_values", "restricted")
DECIDED = ("certified", "no_certificate", "reduced", "irreducible")


def yor_cache_bytes() -> int:
    """Bytes of the arrays held in `aldous.yor` module-level dicts."""
    yor = sys.modules.get("aldous.yor")
    if yor is None:
        return 0
    import numpy as np

    return sum(
        a.nbytes
        for name, value in vars(yor).items()
        if not name.startswith("__") and isinstance(value, dict)
        for a in value.values()
        if isinstance(a, np.ndarray)
    )


def _count(counters: Counter, layer: str, name: str, args, result) -> None:
    """Work counts taken at the layer boundary, from arguments and results."""
    if layer == "eigensolve" and name in ("eigvalsh", "eigh", "eigsh"):
        dim = int(args[0].shape[0])
        counters["eigensolve.dim_max"] = max(counters["eigensolve.dim_max"], dim)
        if name == "eigsh":
            counters["eigensolve.iterative_calls"] += 1
        else:
            counters["eigensolve.dense_flops"] += dim**3
    elif name == "irrep_laplacian":
        counters["yor.block_elems"] += int(result.size)
    elif name == "interchange_laplacian":
        counters["interchange.states"] += int(result.shape[0])
        counters["interchange.nnz"] += int(result.nnz)
    elif name in ("certify_elimination", "reduce_to_edge"):
        counters["reduction.states_expanded"] += result.states_expanded
        counters["reduction.attempts"] += 1
        counters["reduction.decided"] += result.status in DECIDED
    elif name == "collapse_last_vertex":
        counters["graphs.collapse_calls"] += 1


class Tracer:
    """In-memory span recorder plus the bindings it has replaced."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._request = None
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def request(self, request_id, start: float | None = None):
        """Root span of one request; layer spans inside it are its descendants."""
        root = self._new_id()
        self._request = request_id
        self._stack = [root]
        t0 = time.perf_counter() if start is None else start
        try:
            yield root
        finally:
            self.spans.append([root, None, request_id, "request", "request", t0, time.perf_counter()])
            self._request = None
            self._stack = []

    def add_span(self, layer: str, name: str, start: float, end: float) -> None:
        """Record an interval measured by the caller under the current span."""
        self.spans.append([self._new_id(), self._stack[-1], self._request, layer, name, start, end])

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            sid = tracer._new_id()
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append([sid, parent, tracer._request, layer, name, t0, t1])
            _count(tracer.counters, layer, name, args, result)
            return result

        return traced

    def _counted(self, counter: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer._request is not None:
                tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer entry point; the modules must be importable."""
        wrappers = {}
        for layer, modname in LAYER_MODULES.items():
            module = importlib.import_module(modname)
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == modname:
                    wrappers[obj] = self._wrap(layer, name, obj)
        for modname, name in SOLVERS:
            module = importlib.import_module(modname)
            fn = getattr(module, name)
            wrappers[fn] = self._wrap("eigensolve", name, fn)
            self._set(module, name, wrappers[fn])
        for modname, module in list(sys.modules.items()):
            if modname == "aldous" or modname.startswith("aldous."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._set(module, name, wrappers[obj])
        tableau = importlib.import_module("aldous.tableaux").StandardTableau
        for name in TABLEAU_METHODS:
            self._set(tableau, name, self._counted("tableaux.method_calls", getattr(tableau, name)))
        self._set(tableau, "__post_init__", self._counted("tableaux.tableau_objects", tableau.__post_init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
