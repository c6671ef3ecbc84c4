"""Tests for the serve benchmark and the --jobs parallel suite runner."""

import json

import numpy as np
import pytest

from repro.bench import make_artifact, registry, validate_artifact
from repro.bench.cli import main as bench_main
from repro.bench.runner import run_suite
from repro.bench.serving import run_serve_bench, serve_records_for_scenario


class TestServeBench:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        artifact_dir = tmp_path_factory.mktemp("serve-bench")
        return serve_records_for_scenario(
            "grid_2d/tiny", n_queries=60, batch_size=16,
            artifact_dir=artifact_dir,
        )

    def test_three_methods(self, records):
        assert [r.method for r in records] == [
            "serve_naive", "serve_batched", "serve_service",
        ]
        assert all(r.scenario == "grid_2d/tiny" for r in records)

    def test_quality_metrics_present(self, records):
        for record in records:
            assert record.quality["qps"] > 0
            assert record.quality["p99_ms"] >= record.quality["p50_ms"] >= 0
            assert record.wall_seconds[0] > 0

    def test_batched_speedup_recorded(self, records):
        # Whether batching wins is a timing claim, gated in CI against the
        # committed BENCH_serving.json; on 60 queries of a tiny graph the
        # ratio only measures the host's load.  Recorded and sane is checked.
        batched = records[1]
        speedup = batched.info["speedup_vs_naive"]
        assert np.isfinite(speedup) and speedup > 0
        assert batched.quality["speedup_vs_naive"] == speedup
        assert batched.info["resistance_engine"] in ("woodbury", "grouped")
        assert batched.info["n_queries"] == 60

    def test_naive_baseline_factorises_before_its_timer(self, tmp_path, monkeypatch):
        # GraphSession builds its Laplacian factorisation on first use; the
        # naive baseline must take it before the serve_naive span starts,
        # so that serve_naive times per-pair solves only.
        import repro.serve.session as session_module
        from repro.obs.tracing import current_span

        opened_in = []
        real = session_module.LaplacianSolver

        def recording(*args, **kwargs):
            span = current_span()
            opened_in.append(None if span is None else span.name)
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "LaplacianSolver", recording)
        serve_records_for_scenario(
            "grid_2d/tiny", n_queries=20, batch_size=8,
            artifact_dir=tmp_path, trace_dir=tmp_path / "trace",
        )
        assert opened_in, "the naive baseline never asked for the solver"
        assert "serve_naive" not in opened_in

    def test_records_form_a_valid_artifact(self, records):
        artifact = make_artifact("serving-test", records)
        validate_artifact(artifact)

    def test_artifact_persisted_in_dir(self, records, tmp_path):
        # The learned model was written where we asked and survives a load.
        from repro.artifacts import load_result

        loaded = load_result(records[0].info["artifact"])
        assert loaded.checksum == records[0].info["checksum"]

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            run_serve_bench(["no/such"], n_queries=5)

    def test_cli_writes_gateable_artifact(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serving_test.json"
        code = bench_main([
            "serve", "--scenario", "grid_2d/tiny", "--queries", "40",
            "--batch-size", "16", "--out", str(out),
            "--artifact-dir", str(tmp_path / "models"),
        ])
        assert code == 0
        artifact = validate_artifact(json.loads(out.read_text()))
        assert len(artifact["results"]) == 3
        assert artifact["run_config"]["queries"] == 40
        # Self-compare passes the regression gate.
        assert bench_main(["compare", str(out), str(out)]) == 0

    def test_cli_unknown_scenario(self, capsys):
        assert bench_main(["serve", "--scenario", "no/such"]) == 2


class TestServeLoadSweep:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        artifact_dir = tmp_path_factory.mktemp("serve-load")
        return serve_records_for_scenario(
            "grid_2d/tiny", n_queries=96, batch_size=16,
            artifact_dir=artifact_dir, load_concurrency=[2, 8],
        )

    def test_one_record_per_concurrency_level(self, records):
        methods = [r.method for r in records]
        assert methods == [
            "serve_naive", "serve_batched", "serve_service",
            "serve_load_c2", "serve_load_c8",
        ]

    def test_load_records_carry_qps_and_latency(self, records):
        for record in records:
            if not record.method.startswith("serve_load_c"):
                continue
            assert record.quality["qps"] > 0
            assert record.quality["p99_ms"] >= record.quality["p50_ms"] > 0
            assert record.quality["concurrency"] == record.info["concurrency"]

    def test_load_workload_is_mixed(self, records):
        load = next(r for r in records if r.method == "serve_load_c2")
        mix = load.info["mix"]
        assert set(mix) == {"resistance", "neighbors", "labels"}
        assert sum(mix.values()) == 96
        assert mix["resistance"] > 0 and mix["labels"] > 0
        # grid_2d/tiny artifacts include an embedding, so neighbors ran too.
        assert mix["neighbors"] > 0

    def test_load_records_form_a_valid_artifact(self, records):
        validate_artifact(make_artifact("serving-load-test", records))

    def test_mixed_workload_spellings_coalesce(self):
        # Explicit defaults (k=5 / n_clusters=8) and omitted options must
        # produce identical batch signatures — the sweep depends on it.
        from repro.bench.serving import _mixed_workload

        requests = _mixed_workload(100, 200, seed=0)
        kinds = {kind for kind, _, _ in requests}
        assert kinds == {"resistance", "neighbors", "labels"}
        explicit = [o for k, _, o in requests if k == "neighbors" and o]
        implicit = [o for k, _, o in requests if k == "neighbors" and not o]
        assert explicit and implicit  # both spellings present
        assert all(o == {"k": 5} for o in explicit)

    def test_mixed_workload_without_embedding_drops_neighbors(self):
        from repro.bench.serving import _mixed_workload

        requests = _mixed_workload(100, 120, seed=0, with_neighbors=False)
        assert not any(kind == "neighbors" for kind, _, _ in requests)

    def test_cli_load_flag(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serving_load.json"
        code = bench_main([
            "serve", "--scenario", "grid_2d/tiny", "--queries", "48",
            "--batch-size", "16", "--load", "--concurrency", "4",
            "--out", str(out), "--artifact-dir", str(tmp_path / "models"),
        ])
        assert code == 0
        artifact = validate_artifact(json.loads(out.read_text()))
        assert len(artifact["results"]) == 4
        assert artifact["run_config"]["load_concurrency"] == [4]
        stdout = capsys.readouterr().out
        assert "load c=4" in stdout

    def test_cli_bad_concurrency(self, capsys):
        assert bench_main([
            "serve", "--scenario", "grid_2d/tiny", "--load",
            "--concurrency", "0,abc",
        ]) == 2


class TestJobsRunner:
    def _specs(self):
        return [registry.get_scenario(n) for n in ("grid_2d/tiny", "circuit/tiny")]

    def test_parallel_matches_serial(self):
        specs = self._specs()
        serial = run_suite(specs, n_quality_pairs=40)
        parallel = run_suite(specs, n_quality_pairs=40, jobs=2)
        assert [(r.scenario, r.method) for r in serial] == [
            (r.scenario, r.method) for r in parallel
        ]
        for a, b in zip(serial, parallel):
            # Learner outputs are deterministic; only wall times may differ.
            assert a.quality == b.quality
            assert a.n_nodes == b.n_nodes
            assert a.info["n_iterations"] == b.info["n_iterations"]

    def test_progress_fires_once_per_scenario(self):
        seen = []
        run_suite(
            self._specs(), n_quality_pairs=40, jobs=2,
            progress=lambda spec, records: seen.append(spec.name),
        )
        assert sorted(seen) == ["circuit/tiny", "grid_2d/tiny"]

    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            run_suite(self._specs(), jobs=0)

    def test_cli_jobs_flag(self, tmp_path, capsys):
        out = tmp_path / "BENCH_jobs.json"
        code = bench_main([
            "run", "--scenario", "grid_2d/tiny", "--scenario", "circuit/tiny",
            "--jobs", "2", "--baselines", "none", "--no-memory",
            "--out", str(out), "--tag", "jobs-test",
        ])
        assert code == 0
        artifact = validate_artifact(json.loads(out.read_text()))
        assert [r["scenario"] for r in artifact["results"]] == [
            "grid_2d/tiny", "circuit/tiny",
        ]
