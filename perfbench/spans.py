"""In-memory spans around the public names each speclab layer looks up.

The tracer replaces module attributes (for example
``speclab.search.has_fs_minor``) with wrappers that record one span per
call: name, start, end and the index of the enclosing span.  Callers look
these names up at call time, so the wrappers see every call without any
change to the program.  Spans stay in memory until ``summary`` turns them
into per-layer totals; ``uninstall`` restores the original attributes.

A layer's self time is the duration of its spans minus the part covered
by their direct child spans, so the self times of all spans under one
root add up to the root's duration.
"""

from __future__ import annotations

import time
from collections import Counter

# span name -> (module, attribute) pairs wrapped under that name
LAYER_NAMES = {
    "graph.canonical_code": [("speclab.enumerate", "canonical_code")],
    "graph.canonical_perm": [("speclab.enumerate", "canonical_perm")],
    "families.construct": [("speclab.minor", "construct"), ("speclab.search", "construct")],
    "matching.max_matching": [("speclab.minor", "max_matching")],
    "spectral.spectral_radius": [("speclab.search", "spectral_radius")],
    "minor.verify_model": [("speclab.minor", "verify_model")],
    "minor": [
        (module, attr)
        for module in ("speclab.minor", "speclab.search")
        for attr in ("has_fs_minor", "has_qt_minor", "fs_subgraph_witness", "qt_subgraph_witness")
    ],
}


class Tracer:
    """Spans and exact counts of one traced interval."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []
        self.pool_start: float | None = None

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx] = (name, t0, time.perf_counter(), parent)
            self._stack.pop()

    def _wrap(self, module, attr, name, on_result=None):
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.span(name, orig, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def _on_minor(self, result):
        if result is None:  # fs_subgraph_witness: no witness
            status, nodes = "not_found", 0
        elif hasattr(result, "status"):
            status, nodes = result.status, result.nodes_used
        else:  # fs_subgraph_witness: a witness
            status, nodes = "found", 0
        self.counts["minor." + status] += 1
        if status == "found" and hasattr(result, "model"):
            self.counts["minor.engine_found"] += 1
        self.counts["minor.nodes"] += nodes
        self.counts["minor.nodes_max"] = max(self.counts["minor.nodes_max"], nodes)

    def _on_spectral(self, result):
        self.counts["spectral.iterations"] += result.iterations

    def install(self, modules):
        """Wrap every name in LAYER_NAMES; modules maps dotted name -> module."""
        hooks = {"minor": self._on_minor, "spectral.spectral_radius": self._on_spectral}
        for name, targets in LAYER_NAMES.items():
            for module_name, attr in targets:
                self._wrap(modules[module_name], attr, name, hooks.get(name))
        search = modules["speclab.search"]
        self._wrap_class_stream(search, "enumerate_connected")
        self._wrap_class_stream(search, "enumerate_connected_slice")
        self._watch_pool(search)

    def _wrap_class_stream(self, module, attr):
        # The stream may do its work when created (a cached level is built
        # eagerly) or in next(); both count as enumerate time.
        orig = getattr(module, attr)
        tracer = self

        class Stream:
            def __init__(self, inner):
                self.inner = iter(inner)

            def __iter__(self):
                return self

            def __next__(self):
                item = tracer.span("enumerate", next, self.inner)
                tracer.counts["enumerate.classes"] += 1
                return item

        def traced(*args, **kwargs):
            return Stream(self.span("enumerate", orig, *args, **kwargs))

        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def _watch_pool(self, search):
        # search starts its worker pool through multiprocessing.get_context;
        # the time of that call ends the serial part of a parallel search.
        real = search.multiprocessing
        tracer = self

        class Proxy:
            def __getattr__(self, attr):
                return getattr(real, attr)

            def get_context(self, *args, **kwargs):
                tracer.pool_start = time.perf_counter()
                return real.get_context(*args, **kwargs)

        search.multiprocessing = Proxy()
        self._undo.append((search, "multiprocessing", real))

    def uninstall(self):
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """Totals per span name: calls, total seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (t1 - t0), self_s + (t1 - t0 - child_time[i]))
        return {
            name: {"calls": c, "s": s, "self_s": own} for name, (c, s, own) in out.items()
        }
