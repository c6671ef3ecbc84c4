"""Tests for repro.obs: tracing, metrics, resources, the report CLI, and the
integration contracts the rest of the stack relies on (span/StageTimings
reconciliation, contextvar propagation across the batcher's thread-pool hop,
mergeable metrics for --jobs, and a bounded tracer overhead)."""

import asyncio
import collections
import json
import threading
import time

import numpy as np
import pytest

from repro.core.instrumentation import STAGE_NAMES, StageTimings
from repro.core.sgl import learn_graph
from repro.graphs.generators import grid_2d
from repro.measurements.generator import simulate_measurements
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsSession,
    ResourceSampler,
    Tracer,
    activate,
    current_span,
    current_tracer,
    load_spans,
    set_attributes,
    span,
)
from repro.obs.report import aggregate_spans, build_tree, main as obs_main, self_times
from repro.serve.batching import MicroBatcher


@pytest.fixture(scope="module")
def measurements():
    return simulate_measurements(grid_2d(8, 8), n_measurements=40, seed=0)


# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.span("root", kind="test"):
            with tracer.span("child_a"):
                pass
            with tracer.span("child_b"):
                with tracer.span("grandchild"):
                    pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["root"].parent_id is None
        assert spans["child_a"].parent_id == spans["root"].span_id
        assert spans["child_b"].parent_id == spans["root"].span_id
        assert spans["grandchild"].parent_id == spans["child_b"].span_id
        assert spans["child_a"].start <= spans["child_b"].start
        assert spans["root"].duration >= (
            spans["child_a"].duration + spans["child_b"].duration
        )
        assert spans["root"].attributes == {"kind": "test"}

    def test_ambient_helpers_are_noops_without_tracer(self):
        assert current_tracer() is None
        with span("ignored", x=1) as sp:
            assert sp is None
        set_attributes(x=2)  # must not raise

    def test_ambient_activation(self):
        tracer = Tracer()
        with activate(tracer):
            assert current_tracer() is tracer
            with span("outer") as outer:
                assert current_span() is outer
                set_attributes(marked=True)
        assert current_tracer() is None
        (recorded,) = tracer.spans()
        assert recorded.name == "outer" and recorded.attributes == {"marked": True}

    def test_record_with_parent_override(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            pass
        t0 = time.perf_counter()
        sp = tracer.record("late", t0, t0 + 0.5, {"k": 1}, parent=root)
        assert sp.parent_id == root.span_id
        assert sp.duration == pytest.approx(0.5)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", n=3):
            with tracer.span("b"):
                pass
        path = tracer.export_jsonl(tmp_path / "t.jsonl")
        loaded = load_spans(path)
        assert [s.name for s in loaded] == ["a", "b"]  # start order
        by_name = {s.name: s for s in loaded}
        assert by_name["b"].parent_id == by_name["a"].span_id
        assert by_name["a"].attributes == {"n": 3}

    def test_chrome_export_shape(self, tmp_path):
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        path = tracer.export_chrome(tmp_path / "chrome.json")
        doc = json.loads(path.read_text())
        complete = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(complete) == 1
        assert complete[0]["name"] == "phase"
        assert complete[0]["dur"] >= 0

    def test_thread_safety_of_collection(self):
        tracer = Tracer()

        def worker(i):
            with activate(tracer):
                for j in range(50):
                    with span("w", worker=i, j=j):
                        pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.spans()) == 200


# ----------------------------------------------------------------------
class TestStageTimingsBridge:
    def test_stage_emits_matching_span(self):
        tracer = Tracer()
        timings = StageTimings()
        with activate(tracer):
            with timings.stage("knn", backend="kdtree"):
                pass
            with timings.stage("knn"):
                pass
        spans = tracer.spans()
        assert [s.name for s in spans] == ["knn", "knn"]
        # The accumulator is exactly the per-stage sum of the spans.
        assert timings.seconds("knn") == pytest.approx(
            sum(s.duration for s in spans), abs=0.0
        )
        assert spans[0].attributes == {"backend": "kdtree"}

    def test_from_spans_reconciles_traced_fit(self, measurements):
        tracer = Tracer()
        with activate(tracer):
            result = learn_graph(measurements, beta=0.05)
        rebuilt = StageTimings.from_spans(tracer.spans())
        original = result.timings
        assert set(rebuilt.stages) == set(original.stages)
        for name in original.stages:
            assert rebuilt.seconds(name) == pytest.approx(
                original.seconds(name), rel=1e-9
            ), name
            assert rebuilt.stages[name].calls == original.stages[name].calls
        # Wrapper spans (sgl.fit, iteration) must not leak into the view.
        assert "sgl.fit" not in rebuilt.stages and "iteration" not in rebuilt.stages

    def test_fit_span_tree_shape(self, measurements):
        tracer = Tracer()
        with activate(tracer):
            result = learn_graph(measurements, beta=0.05)
        roots = build_tree(tracer.spans())
        assert len(roots) == 1 and roots[0].span.name == "sgl.fit"
        iterations = [c for c in roots[0].children if c.span.name == "iteration"]
        assert len(iterations) == result.n_iterations
        # Stage spans nest under iterations; every stage name is known.
        for node in iterations:
            for child in node.children:
                assert child.span.name in STAGE_NAMES
        root_attrs = roots[0].span.attributes
        assert root_attrs["converged"] == result.converged
        assert root_attrs["n_iterations"] == result.n_iterations

    def test_self_time_reconciles_with_stage_totals(self, measurements):
        # Acceptance check: per-stage *self* times in the span tree agree
        # with the StageTimings totals (stage spans are leaves, so self
        # time == duration; the 5% slack covers nothing here but keeps the
        # test honest about what the criterion demands).
        tracer = Tracer()
        with activate(tracer):
            result = learn_graph(measurements, beta=0.05)
        spans = tracer.spans()
        selfs = self_times(spans)
        per_stage: dict[str, float] = {}
        for sp in spans:
            if sp.name in STAGE_NAMES:
                per_stage[sp.name] = per_stage.get(sp.name, 0.0) + selfs[sp.span_id]
        for name, total in per_stage.items():
            recorded = result.timings.seconds(name)
            assert total == pytest.approx(recorded, rel=0.05), name

    def test_untraced_fit_records_timings_only(self, measurements):
        result = learn_graph(measurements, beta=0.05)
        assert result.timings.total_seconds > 0


# ----------------------------------------------------------------------
class TestContextPropagation:
    def test_batcher_carries_tracer_across_thread_pool_hop(self):
        tracer = Tracer()
        seen: dict = {}

        def handler(key, payloads):
            # Runs on an executor thread: without the captured context the
            # ambient tracer would be invisible here.
            seen["tracer"] = current_tracer()
            seen["span"] = current_span()
            seen["thread"] = threading.current_thread().name
            return payloads

        async def run():
            batcher = MicroBatcher(handler, max_batch_size=4, max_delay_s=0.001)
            with activate(tracer):
                with span("client"):
                    out = await asyncio.gather(
                        *(batcher.submit("k", i) for i in range(4))
                    )
                await batcher.drain()
            return out

        assert asyncio.run(run()) == [0, 1, 2, 3]
        assert seen["tracer"] is tracer
        assert seen["thread"] != threading.main_thread().name
        # Handler ran inside the batch.execute span.
        assert seen["span"] is not None and seen["span"].name == "batch.execute"
        names = [s.name for s in tracer.spans()]
        assert names.count("batch.request") == 4
        client = next(s for s in tracer.spans() if s.name == "client")
        requests = [s for s in tracer.spans() if s.name == "batch.request"]
        assert all(r.parent_id == client.span_id for r in requests)
        attrs = requests[0].attributes
        assert {"queue_wait_ms", "pool_wait_ms", "execute_ms", "batch_size"} <= set(attrs)

    def test_batcher_untraced_records_no_spans(self):
        async def run():
            batcher = MicroBatcher(lambda k, p: p, max_batch_size=2, max_delay_s=0.001)
            await asyncio.gather(batcher.submit("k", 1), batcher.submit("k", 2))
            await batcher.drain()
            return batcher

        batcher = asyncio.run(run())
        snap = batcher.metrics.snapshot()
        assert snap["histograms"]["batcher.latency_ms"]["count"] == 2


# ----------------------------------------------------------------------
class TestHistogram:
    def test_quantiles_track_numpy_within_bucket_width(self):
        rng = np.random.default_rng(0)
        buckets = tuple(float(b) for b in np.geomspace(0.01, 1000.0, 40))
        hist = Histogram("x", buckets=buckets)
        samples = rng.lognormal(mean=1.0, sigma=1.2, size=5000)
        for value in samples:
            hist.observe(value)
        for q in (50, 95, 99):
            estimate = hist.quantile(q / 100)
            exact = float(np.percentile(samples, q))
            # Interpolation error is bounded by the containing bucket's
            # width; geomspace(…, 40) steps are ~33% apart.
            assert estimate == pytest.approx(exact, rel=0.35), q

    def test_exact_for_within_bucket_uniform(self):
        hist = Histogram("u", buckets=tuple(float(b) for b in range(1, 11)))
        for value in range(1, 101):
            hist.observe(value / 10)
        assert hist.quantile(0.5) == pytest.approx(5.0, rel=0.02)
        assert hist.quantile(0.0) == pytest.approx(0.1)
        assert hist.quantile(1.0) == pytest.approx(10.0)

    def test_overflow_and_min_max(self):
        hist = Histogram("o", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 100.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]
        assert hist.min == 0.5 and hist.max == 100.0
        assert hist.quantile(1.0) == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", buckets=(1.0,)).quantile(1.5)


# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_and_gauge_basics(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        assert registry.counter("hits").value == 3
        with pytest.raises(ValueError):
            registry.counter("hits").inc(-1)
        gauge = registry.gauge("rss")
        gauge.set(10.0)
        gauge.set(4.0)
        assert gauge.value == 4.0 and gauge.max == 10.0

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="another type"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="another type"):
            registry.histogram("x")

    def test_merge_is_exact_for_jobs_style_fanout(self):
        # Simulate --jobs workers: identical instruments, disjoint samples.
        rng = np.random.default_rng(1)
        workers = []
        all_samples = []
        for w in range(3):
            registry = MetricsRegistry()
            registry.counter("fit.runs").inc(2)
            registry.gauge("rss").set(100.0 * (w + 1))
            hist = registry.histogram("lat", buckets=(1.0, 5.0, 25.0, 125.0))
            samples = rng.uniform(0.1, 100.0, size=200)
            for value in samples:
                hist.observe(value)
            all_samples.append(samples)
            workers.append(registry.snapshot())

        suite = MetricsRegistry()
        for snapshot in workers:
            suite.merge(snapshot)
        assert suite.counter("fit.runs").value == 6
        assert suite.gauge("rss").max == 300.0
        merged = suite.histogram("lat", buckets=(1.0, 5.0, 25.0, 125.0))
        combined = np.concatenate(all_samples)
        assert merged.count == combined.size
        assert merged.sum == pytest.approx(float(combined.sum()))
        assert merged.min == pytest.approx(float(combined.min()))
        assert merged.max == pytest.approx(float(combined.max()))
        # A reference histogram fed every sample directly is identical.
        reference = Histogram("lat", buckets=(1.0, 5.0, 25.0, 125.0))
        for value in combined:
            reference.observe(value)
        assert merged.counts == reference.counts
        assert merged.quantile(0.99) == pytest.approx(reference.quantile(0.99))

    def test_merge_rejects_mismatched_buckets(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1.0, 3.0)).observe(1.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            a.merge(b.snapshot())

    def test_snapshot_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.histogram("h", buckets=(1.0, 10.0)).observe(3.0)
        path = registry.save(tmp_path / "m.json")
        rebuilt = MetricsRegistry.from_snapshot(json.loads(path.read_text()))
        assert rebuilt.snapshot() == registry.snapshot()


# ----------------------------------------------------------------------
class TestBatchStats:
    def test_as_dict_percentiles_come_from_histogram(self):
        async def run():
            batcher = MicroBatcher(lambda k, p: p, max_batch_size=8, max_delay_s=0.001)
            await asyncio.gather(*(batcher.submit("k", i) for i in range(8)))
            await batcher.drain()
            return batcher.stats

        stats = asyncio.run(run())
        summary = stats.as_dict()
        hist = stats.metrics.histogram("batcher.latency_ms")
        assert summary["p50_ms"] == pytest.approx(hist.quantile(0.5))
        assert summary["p99_ms"] == pytest.approx(hist.quantile(0.99))
        assert summary["queue_wait_mean_ms"] >= 0


# ----------------------------------------------------------------------
class TestResourceSampler:
    def test_samples_and_summary(self):
        sampler = ResourceSampler(interval_s=0.01)
        with sampler:
            time.sleep(0.06)
        summary = sampler.summary()
        assert summary["n_samples"] >= 2
        assert summary["rss_max_bytes"] > 0
        assert summary["threads_max"] >= 1
        assert summary["duration_s"] > 0

    def test_save(self, tmp_path):
        sampler = ResourceSampler(interval_s=0.01)
        with sampler:
            time.sleep(0.03)
        path = sampler.save(tmp_path / "r.json")
        doc = json.loads(path.read_text())
        assert doc["summary"]["n_samples"] == len(doc["samples"])


# ----------------------------------------------------------------------
class TestObsSession:
    def test_saves_all_artifacts(self, tmp_path):
        with ObsSession(resource_interval_s=0.01) as obs:
            with span("work"):
                obs.metrics.counter("n").inc()
            time.sleep(0.02)
        paths = obs.save(tmp_path, prefix="run")
        assert sorted(p.name for p in paths.values()) == [
            "run.jsonl",
            "run_chrome.json",
            "run_metrics.json",
            "run_resources.json",
        ]
        assert load_spans(paths["trace"])[0].name == "work"


# ----------------------------------------------------------------------
class TestReportCLI:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        with ObsSession(sample_resources=False) as obs:
            with span("fit"):
                with span("knn"):
                    pass
            obs.metrics.histogram("lat_ms").observe(2.0)
        paths = obs.save(tmp_path, prefix="t")
        return paths["trace"]

    def test_report_renders_tables(self, trace_path, capsys):
        assert obs_main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "self_%" in out and "fit" in out and "knn" in out
        assert "lat_ms" in out  # sibling metrics picked up automatically

    def test_report_missing_trace(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2

    def test_chrome_subcommand(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "converted.json"
        assert obs_main(["chrome", str(trace_path), str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_aggregate_self_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.01)
        rows = {row.name: row for row in aggregate_spans(tracer.spans())}
        assert rows["inner"].self_seconds == pytest.approx(
            rows["inner"].total_seconds
        )
        assert rows["outer"].self_seconds <= rows["outer"].total_seconds


# ----------------------------------------------------------------------
class TestTracerOverhead:
    # Tracing is meant to stay on, so it must be cheap.  How cheap is a
    # timing, measured by sglbench's ``trace.overhead_pct``; tier-1 checks
    # the mechanism that keeps it cheap, without a clock.
    def test_traced_fit_learns_the_same_graph(self, measurements):
        untraced = learn_graph(measurements, beta=0.05)
        with activate(Tracer()):
            traced = learn_graph(measurements, beta=0.05)
        assert traced.graph == untraced.graph
        assert traced.history.edges_added.tolist() == untraced.history.edges_added.tolist()

    def test_spans_grow_with_iterations_not_edges(self):
        for side in (8, 16):
            data = simulate_measurements(grid_2d(side, side), n_measurements=40, seed=0)
            tracer = Tracer()
            with activate(tracer):
                result = learn_graph(data, beta=0.05)
            names = collections.Counter(span.name for span in tracer.spans())
            n = result.n_iterations
            assert names["iteration"] == names["sensitivity"] == n
            # The root, three set-up stages and Step 5; then per iteration
            # its span, one refresh, one sensitivity pass and one selection.
            assert sum(names.values()) <= 5 + 4 * n, names
            assert result.knn_graph.n_edges > 2 * sum(names.values())
