"""The benchmark tracer's entry points exist in ``src/``.

``sglbench/spans.py`` patches learner functions by module attribute
(``repro.core.sgl.edge_sensitivities``, ...) and methods on their classes
(``EmbeddingEngine.refresh``, ...).  A rename in ``src/`` would otherwise
show only when a traced benchmark run dies with an ``AttributeError``.
"""

import importlib
import pathlib

SGLBENCH = pathlib.Path(__file__).resolve().parent.parent / "sglbench"


def _entry_points(spans):
    functions = [
        getattr(importlib.import_module(module), name) for module, name, _ in spans.FUNCTIONS
    ]
    methods = [cls.__dict__[name] for cls, name, _, _ in spans.METHODS]
    return functions + methods


def test_tracer_patches_and_restores_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(SGLBENCH))
    spans = importlib.import_module("spans")
    originals = _entry_points(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = _entry_points(spans)
    finally:
        tracer.uninstall()
    assert all(now is not before for now, before in zip(patched, originals))
    assert all(now is before for now, before in zip(_entry_points(spans), originals))
