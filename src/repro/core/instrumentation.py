"""Lightweight per-stage performance counters for the SGL hot path.

The paper's runtime study (Fig. 11) breaks SGL's near-linear runtime into its
pipeline stages: kNN construction, spanning-tree extraction, spectral
embedding, edge sensitivity ranking and edge scaling.  :class:`StageTimings`
is the instrument the learner (and the benchmark harness in
:mod:`repro.bench`) threads through that pipeline: a tiny accumulator of
wall-clock seconds and call counts per named stage.  The embedding engine
splits Step 2 into ``embedding`` (cold solves) and ``embedding_warm`` (warm
refreshes), and the sharded stitch's cold solves record ``embedding``.

Since the :mod:`repro.obs` layer landed, :class:`StageTimings` is also the
bridge into tracing: every :meth:`StageTimings.stage` entry additionally
emits a span on the ambient :class:`~repro.obs.Tracer` (when one is active)
over the *same* ``perf_counter`` window, so a traced run's per-stage span
totals reconcile exactly with the ``StageTimings`` sums — the timings are a
view derived from the spans.  :meth:`StageTimings.from_spans` rebuilds that
view from an exported trace.

The overhead is two :func:`time.perf_counter` calls plus one contextvar
lookup per stage entry, so the learner records timings unconditionally; a
fresh ``StageTimings`` is attached to every
:class:`~repro.core.sgl.SGLResult`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.obs.tracing import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracing import Span

__all__ = ["STAGE_NAMES", "StageStat", "StageTimings"]

#: Stage names the SGL pipeline may record, in rough pipeline order.  Used
#: by :meth:`StageTimings.from_spans` to pick stage spans out of a trace.
STAGE_NAMES: tuple[str, ...] = (
    "knn",
    "initial_tree",
    "candidate_pool",
    "partition",
    "shard_fit",
    "stitch",
    "embedding",
    "embedding_warm",
    "sensitivity",
    "objective",
    "edge_selection",
    "edge_scaling",
    "checkpoint",
    "drift_check",
    "publish",
)


@dataclass
class StageStat:
    """Accumulated wall-clock time of one named pipeline stage."""

    seconds: float = 0.0
    calls: int = 0

    def add(self, seconds: float) -> None:
        """Accumulate one timed interval."""
        self.seconds += seconds
        self.calls += 1


@dataclass
class StageTimings:
    """Per-stage wall-clock accumulator threaded through the SGL pipeline.

    Examples
    --------
    >>> timings = StageTimings()
    >>> with timings.stage("embedding"):
    ...     _ = sum(range(1000))
    >>> timings.stages["embedding"].calls
    1

    Under an active tracer every stage entry is also a span, and the
    accumulator is exactly the per-stage sum of those spans:

    >>> from repro.obs import Tracer, activate
    >>> tracer = Tracer()
    >>> with activate(tracer):
    ...     with timings.stage("sensitivity"):
    ...         pass
    >>> [s.name for s in tracer.spans()]
    ['sensitivity']
    >>> StageTimings.from_spans(tracer.spans()).seconds("sensitivity") == (
    ...     tracer.spans()[0].duration)
    True
    """

    stages: dict[str, StageStat] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str, **attributes):
        """Context manager timing one entry into stage ``name``.

        When a :class:`~repro.obs.Tracer` is ambient, the same interval is
        emitted as a span named ``name`` (with ``attributes``) under the
        context's current span; :func:`repro.obs.set_attributes` may add
        attributes from inside the block.
        """
        tracer = current_tracer()
        start = time.perf_counter()
        span = tracer.begin(name, attributes, start=start) if tracer is not None else None
        try:
            yield self
        finally:
            end = time.perf_counter()
            if span is not None:
                tracer.finish(span, end=end)
            self.add(name, end - start)

    def add(self, name: str, seconds: float) -> None:
        """Record ``seconds`` spent in stage ``name``."""
        self.stages.setdefault(name, StageStat()).add(seconds)

    def add_interval(
        self, name: str, start: float, end: float, **attributes
    ) -> None:
        """Record an already-measured ``perf_counter`` interval.

        Like :meth:`add`, but also logs the interval as a completed span on
        the ambient tracer (under the context's current span) — for call
        sites that only know the stage name *after* the work ran, like the
        incremental engine's warm-vs-cold split.
        """
        tracer = current_tracer()
        if tracer is not None:
            tracer.record(name, start, end, attributes)
        self.add(name, end - start)

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded stage times."""
        return sum(stat.seconds for stat in self.stages.values())

    def seconds(self, name: str) -> float:
        """Seconds recorded for stage ``name`` (0 when never entered)."""
        stat = self.stages.get(name)
        return stat.seconds if stat is not None else 0.0

    def merge(self, other: "StageTimings") -> None:
        """Fold another accumulator's stages into this one."""
        for name, stat in other.stages.items():
            mine = self.stages.setdefault(name, StageStat())
            mine.seconds += stat.seconds
            mine.calls += stat.calls

    def as_dict(self) -> dict[str, dict[str, float | int]]:
        """JSON-ready ``{stage: {"seconds": ..., "calls": ...}}`` mapping."""
        return {
            name: {"seconds": stat.seconds, "calls": stat.calls}
            for name, stat in self.stages.items()
        }

    @classmethod
    def from_dict(cls, data: dict[str, dict[str, float | int]]) -> "StageTimings":
        """Inverse of :meth:`as_dict`."""
        timings = cls()
        for name, stat in data.items():
            timings.stages[name] = StageStat(
                seconds=float(stat["seconds"]), calls=int(stat["calls"])
            )
        return timings

    @classmethod
    def from_spans(
        cls, spans: Iterable["Span"], *, stage_names: Iterable[str] | None = None
    ) -> "StageTimings":
        """Derive the per-stage view from a span list (trace round trip).

        Only spans whose name is a known stage name (:data:`STAGE_NAMES`,
        overridable) contribute, so iteration/fit wrapper spans don't double
        count.  Because :meth:`stage` emits spans over the exact window it
        accumulates, this reconstruction matches the original accumulator.
        """
        names = frozenset(STAGE_NAMES if stage_names is None else stage_names)
        timings = cls()
        for span in spans:
            if span.name in names:
                timings.add(span.name, span.duration)
        return timings

    def __len__(self) -> int:
        return len(self.stages)
