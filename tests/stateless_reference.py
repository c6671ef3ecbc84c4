"""The stateless Step-2 engine as the tests' reference path.

``SGLConfig.embedding_engine`` names only the engines the learner ships:
``"incremental"`` and ``"multilevel"``.  The tests still compare both against
a cold solve on every densification iteration, which is what
:class:`~repro.embedding.StatelessEmbeddingEngine` does.  Inside
:func:`stateless_engine`, every learner built in this process embeds with it,
whatever engine its config names.
"""

import contextlib
from unittest import mock

from repro.core import sgl
from repro.embedding import StatelessEmbeddingEngine


def _make_stateless_engine(config):
    return StatelessEmbeddingEngine(
        config.r, sigma_sq=config.sigma_sq, method=config.eigensolver, seed=config.seed
    )


def stateless_engine():
    """Make ``SGLearner`` (and in-process shard fits) embed cold every iteration."""
    return mock.patch.object(sgl, "make_engine", _make_stateless_engine)


def engine_under_test(name: str):
    """The ``embedding_engine`` value and the context that run engine ``name``.

    ``"stateless"`` is no config value: it runs as ``"incremental"`` inside
    :func:`stateless_engine`, which replaces that engine.
    """
    if name == "stateless":
        return "incremental", stateless_engine()
    return name, contextlib.nullcontext()
