"""Per-layer metrics from the traced run's spans.

Busy times and counts are per op of the traced phase (``/op`` units), so
runs of different lengths compare.  ``artifacts.*_s`` and
``serve.session_build_s`` are the mean of one call, set-up calls included,
because ``serve`` loads and builds its session only during set-up.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass, field

from spans import ATTRS, END, NAME, OP, PARENT, START

#: name -> unit of every per-layer metric, in the order they are printed.
UNITS = {
    "knn.busy_s": "s/op",
    "embedding.busy_s": "s/op",
    "embedding.refreshes": "count/op",
    "embedding.cold_solves": "count/op",
    "embedding.fallbacks": "count/op",
    "embedding.warm_accept_ratio": "1",
    "core.iterations": "count/op",
    "core.edges_added": "count/op",
    "sensitivity.busy_s": "s/op",
    "scaling.busy_s": "s/op",
    "fit.other_s": "s/op",
    "linalg.factorizations": "count/op",
    "artifacts.publish_s": "s",
    "artifacts.bytes_published": "B/op",
    "artifacts.load_s": "s",
    "stream.update_p50_ms": "ms",
    "stream.update_other_s": "s/op",
    "stream.drift_busy_s": "s/op",
    "stream.refits": "count/op",
    "stream.incrementals": "count/op",
    "stream.topology_change_ratio": "1",
    "serve.session_build_s": "s",
    "serve.resistance.busy_s": "s/op",
    "serve.neighbors.busy_s": "s/op",
    "serve.labels.busy_s": "s/op",
    "serve.batches": "count/op",
    "serve.batch_size_mean": "count",
    "serve.wait_mean_ms": "ms",
    "serve.read_burst_s": "s/op",
    "trace.overhead_pct": "%",
    "trace.unaccounted_share": "1",
}

QUERY_LAYERS = ("serve.resistance", "serve.neighbors", "serve.labels")


@dataclass
class Op:
    """One timed op: its wall interval and what the program returned about it."""

    start: float
    end: float
    counts: dict = field(default_factory=dict)


@dataclass(slots=True)
class Request:
    """One service request: kind, its payload key, submit and answer times."""

    kind: str
    key: object
    start: float
    end: float


def _payload_keys(kind: str, payload) -> set:
    if kind == "serve.resistance":
        return {(int(s), int(t)) for s, t in payload.reshape(-1, 2)}
    return {int(node) for node in payload.ravel()}


def _match_waits(query_spans: list, requests: list[Request]) -> tuple[list[float], float]:
    """Wait of each request (latency minus the execute time of the batch it rode).

    A request rode the batch of its kind that ran inside its submit-answer
    interval and carried its payload.  Returns the waits and the summed
    latency of requests no batch could be matched to.
    """
    by_kind: dict[str, list] = {layer: [] for layer in QUERY_LAYERS}
    for record in query_spans:
        by_kind[record[NAME]].append(record)
    ends = {}
    for layer, records in by_kind.items():
        records.sort(key=lambda r: r[END])
        ends[layer] = [r[END] for r in records]
    keys: dict[int, set] = {}
    waits, unmatched = [], 0.0
    for request in requests:
        layer = "serve." + request.kind
        records, layer_ends = by_kind[layer], ends[layer]
        index = bisect.bisect_right(layer_ends, request.end) - 1
        found = None
        while index >= 0 and records[index][END] >= request.start:
            record = records[index]
            if record[START] >= request.start:
                batch = keys.get(id(record))
                if batch is None:
                    batch = keys[id(record)] = _payload_keys(layer, record[ATTRS]["payload"])
                if request.key in batch:
                    found = record
                    break
            index -= 1
        latency = request.end - request.start
        if found is None:
            unmatched += latency
        else:
            waits.append(latency - (found[END] - found[START]))
    return waits, unmatched


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def per_layer(
    spans: list[list],
    phase,
    *,
    untraced_ops_per_s: float,
    traced_ops_per_s: float,
    overlapping: bool = False,
) -> dict[str, float]:
    """Every per-layer metric, 0 for layers the workload does not reach.

    ``trace.unaccounted_share`` is the share of op wall time that no span
    covers.  With ``overlapping`` ops (concurrent requests) a request's
    latency splits into the execute time of its batch and its wait, and
    what no batch covers is unaccounted.
    """
    ops, requests = phase.ops, phase.requests
    n_ops = phase.attempted
    in_phase = [r for r in spans if r[OP] != "setup"]
    child_time: dict[int, float] = {}
    for record in in_phase:
        if record[PARENT] is not None:
            key = id(record[PARENT])
            child_time[key] = child_time.get(key, 0.0) + record[END] - record[START]

    def named(layer, records=in_phase):
        return [r for r in records if r[NAME] == layer]

    def busy(*layers):
        return sum(r[END] - r[START] for layer in layers for r in named(layer)) / n_ops

    def own(layer):
        return sum(r[END] - r[START] - child_time.get(id(r), 0.0) for r in named(layer)) / n_ops

    def mean_call(layer):
        durations = [r[END] - r[START] for r in named(layer, spans)]
        return statistics.fmean(durations) if durations else 0.0

    def op_sum(key):
        return sum(op.counts.get(key, 0) for op in ops) / n_ops

    modes = [r[ATTRS]["mode"] for r in named("embedding")]
    accepted = sum(mode in ("warm-rr", "warm-inverse") for mode in modes)
    fallbacks = modes.count("fallback")
    queries = [r for r in in_phase if r[NAME] in QUERY_LAYERS]
    batch_items = sum(r[ATTRS]["payload"].size // (2 if r[NAME] == "serve.resistance" else 1) for r in queries)
    updates = [r[END] - r[START] for r in named("stream.update")]
    stream_ops = [op for op in ops if "mode" in op.counts]
    waits, unmatched = _match_waits(queries, requests)

    metrics = {
        "knn.busy_s": busy("knn"),
        "embedding.busy_s": busy("embedding"),
        "embedding.refreshes": len(modes) / n_ops,
        "embedding.cold_solves": sum(mode in ("cold", "fallback") for mode in modes) / n_ops,
        "embedding.fallbacks": fallbacks / n_ops,
        "embedding.warm_accept_ratio": accepted / (accepted + fallbacks) if accepted + fallbacks else 0.0,
        # One sensitivity pass per densification iteration, in fits and updates alike.
        "core.iterations": len(named("sensitivity")) / n_ops,
        "core.edges_added": op_sum("edges_added"),
        "sensitivity.busy_s": busy("sensitivity"),
        "scaling.busy_s": busy("scaling"),
        "fit.other_s": own("fit"),
        "linalg.factorizations": len(named("linalg.factorization")) / n_ops,
        "artifacts.publish_s": mean_call("artifacts.publish"),
        "artifacts.bytes_published": sum(r[ATTRS]["bytes"] for r in named("artifacts.publish")) / n_ops,
        "artifacts.load_s": mean_call("artifacts.load"),
        "stream.update_p50_ms": 1e3 * statistics.median(updates) if updates else 0.0,
        "stream.update_other_s": own("stream.update"),
        "stream.drift_busy_s": busy("stream.drift"),
        "stream.refits": op_sum("refit"),
        "stream.incrementals": op_sum("incremental"),
        "stream.topology_change_ratio": (
            sum(op.counts["topology_changed"] for op in stream_ops) / len(stream_ops) if stream_ops else 0.0
        ),
        "serve.session_build_s": mean_call("serve.session_build"),
        "serve.resistance.busy_s": busy("serve.resistance"),
        "serve.neighbors.busy_s": busy("serve.neighbors"),
        "serve.labels.busy_s": busy("serve.labels"),
        "serve.batches": len(queries) / n_ops,
        "serve.batch_size_mean": batch_items / len(queries) if queries else 0.0,
        "serve.wait_mean_ms": 1e3 * statistics.fmean(waits) if waits else 0.0,
        "serve.read_burst_s": op_sum("read_burst_s"),
        "trace.overhead_pct": 100.0 * (1.0 - traced_ops_per_s / untraced_ops_per_s),
    }

    if overlapping:
        unaccounted = unmatched / sum(r.end - r.start for r in requests)
    else:
        roots: dict[object, list] = {}
        for record in in_phase:
            if record[PARENT] is None:
                roots.setdefault(record[OP], []).append((record[START], record[END]))
        wall = sum(op.end - op.start for op in ops)
        covered = sum(_covered(roots.get(i, []), op.start, op.end) for i, op in enumerate(ops))
        unaccounted = 1.0 - covered / wall
    metrics["trace.unaccounted_share"] = unaccounted
    return metrics
