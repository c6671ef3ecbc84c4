"""What one timed phase recorded: op latencies, check outcomes and, where kept, the ops."""

from __future__ import annotations

from array import array

import numpy as np


class Phase:
    """Latencies and outcomes in flat arrays, so that the benchmark's own records
    add little to the process's memory and garbage-collector work.

    ``ops`` holds :class:`layers.Op` records for the few long ops of
    ``fit`` and ``stream``; ``requests`` holds the :class:`layers.Request`
    records the per-layer wait needs: each ``stream`` op's first query, and
    every ``serve`` request in a traced run.
    """

    def __init__(self) -> None:
        self.latencies = array("d")
        self.ok = bytearray()
        self.ops: list = []
        self.requests: list = []
        #: Seconds the phase counts for ``ops_per_s``: the program's working
        #: time, without the benchmark's own input simulation and checks.
        self.busy_s = 0.0

    def add(self, latency: float, ok: bool, op=None, busy_s: float | None = None) -> None:
        self.latencies.append(latency)
        self.ok.append(1 if ok else 0)
        if op is not None:
            self.ops.append(op)
        self.busy_s += latency if busy_s is None else busy_s

    def fail(self, positions) -> None:
        """Count the ops at ``positions`` as failed (a check made after the phase)."""
        for position in positions:
            self.ok[position] = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.ok.count(0)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.busy_s


def tail(latencies, pct: int) -> float:
    """The ``pct`` percentile, which must leave at least ten samples beyond it."""
    if len(latencies) * (100 - pct) / 100 < 10:
        raise ValueError(f"p{pct} of {len(latencies)} samples has fewer than ten beyond it")
    return float(np.percentile(latencies, pct))
