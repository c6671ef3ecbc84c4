"""In-memory spans around the program's public entry points, for the traced run.

:func:`install` replaces each entry point with a wrapper that records a
span ``[layer, start, end, parent, op, attrs]``.  A module-level function is
patched in the module that calls it (``repro.core.sgl.edge_sensitivities``
and ``repro.stream.learner.edge_sensitivities`` are two patches); a method
is patched on its class.  Spans stay in a list until the run ends.  The
untraced run installs nothing, so its numbers carry no tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time

from repro.artifacts import ModelRegistry
from repro.core.sgl import SGLearner
from repro.embedding.engine import EmbeddingEngine
from repro.linalg.solvers import LaplacianSolver
from repro.serve import GraphService, GraphSession
from repro.stream import DriftDetector, OnlineSGLearner

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _refresh_attrs(args, result):
    # "cold", "fallback" (a warm attempt that failed, then a cold solve),
    # "warm-rr" or "warm-inverse".
    return {"mode": args[0].last_mode}


def _batch_attrs(args, result):
    return {"payload": args[1]}


def _publish_attrs(args, result):
    return {"bytes": os.path.getsize(result.path)}


#: (module, function name, layer): functions patched where their caller looks them up.
FUNCTIONS = [
    ("repro.core.sgl", "knn_graph", "knn"),
    ("repro.core.sgl", "maximum_spanning_tree", "knn"),
    ("repro.core.sgl", "edge_sensitivities", "sensitivity"),
    ("repro.stream.learner", "edge_sensitivities", "sensitivity"),
    ("repro.core.sgl", "spectral_edge_scaling", "scaling"),
    ("repro.stream.learner", "spectral_edge_scaling", "scaling"),
    ("repro.serve.service", "load_result", "artifacts.load"),
]

#: (class, method, layer, attrs hook): methods patched on their class.
METHODS = [
    (SGLearner, "fit", "fit", None),
    (EmbeddingEngine, "refresh", "embedding", _refresh_attrs),
    (LaplacianSolver, "__init__", "linalg.factorization", None),
    (ModelRegistry, "publish", "artifacts.publish", _publish_attrs),
    (OnlineSGLearner, "update", "stream.update", None),
    (DriftDetector, "assess", "stream.drift", None),
    (GraphService, "warm", "serve.warm", None),
    (GraphSession, "__init__", "serve.session_build", None),
    (GraphSession, "effective_resistance", "serve.resistance", _batch_attrs),
    (GraphSession, "nearest_neighbors", "serve.neighbors", _batch_attrs),
    (GraphSession, "cluster_labels", "serve.labels", _batch_attrs),
]


class Tracer:
    """Collects spans; ``op`` tags each span with the benchmark op it ran under."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: object = None
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, attrs_hook):
        spans = self.spans
        local = self._local
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [layer, 0.0, 0.0, stack[-1] if stack else None, tracer.op, None]
            spans.append(record)
            stack.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if attrs_hook is not None:
                record[ATTRS] = attrs_hook(args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every entry point; :meth:`uninstall` puts the originals back."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, name, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            self._restore.append((module, name, original))
            setattr(module, name, self._wrap(layer, original, None))
        for cls, name, layer, hook in METHODS:
            original = cls.__dict__[name]
            self._restore.append((cls, name, original))
            setattr(cls, name, self._wrap(layer, original, hook))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
