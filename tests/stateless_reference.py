"""The stateless Step-2 engine as the tests' reference path.

The learner ships one Step-2 engine, the warm-started
:class:`~repro.embedding.EmbeddingEngine`.  The tests still compare it
against a cold solve on every densification iteration, which is what
:class:`~repro.embedding.StatelessEmbeddingEngine` does.  Inside
:func:`stateless_engine`, every learner built in this process embeds with it.
"""

import contextlib
from unittest import mock

from repro.core import sgl
from repro.embedding import StatelessEmbeddingEngine


def _make_stateless_engine(config):
    return StatelessEmbeddingEngine(config.r, sigma_sq=config.sigma_sq, seed=config.seed)


def stateless_engine():
    """Make ``SGLearner`` (and in-process shard fits) embed cold every iteration."""
    return mock.patch.object(sgl, "make_engine", _make_stateless_engine)


def engine_under_test(name: str):
    """The context that runs engine ``name``: ``"incremental"`` or ``"stateless"``."""
    if name == "stateless":
        return stateless_engine()
    return contextlib.nullcontext()
