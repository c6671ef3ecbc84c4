"""Benchmark harness tests: registry, runner, artifact schema, CLI, gating."""

import json

import pytest

from repro.bench import (
    ArtifactError,
    BenchRecord,
    compare,
    get_scenario,
    list_scenarios,
    list_suites,
    load_artifact,
    make_artifact,
    registry,
    run_scenario,
    save_artifact,
    validate_artifact,
)
from repro.bench.cli import main
from repro.bench.cli import main as bench_main
from repro.bench.runner import run_suite


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_smoke_suite_has_at_least_five_scenarios():
    assert len(list_scenarios("smoke")) >= 5


def test_default_suites_registered():
    assert {"smoke", "full", "scaling"} <= set(list_suites())


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        get_scenario("no_such/scenario")


def test_scenarios_are_reproducible():
    spec = get_scenario("grid_2d/tiny")
    assert spec.build_graph() == spec.build_graph()
    first = spec.build_measurements()
    second = spec.build_measurements()
    assert (first.voltages == second.voltages).all()


def test_scaling_suite_spans_tiers():
    tiers = {get_scenario(name).tier for name in list_scenarios("scaling")}
    assert {"tiny", "small", "medium"} <= tiers


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_records():
    return run_scenario(
        get_scenario("grid_2d/tiny"),
        repeats=2,
        baselines=("knn_baseline",),
        track_memory=True,
    )


def test_runner_emits_sgl_and_baseline_records(tiny_records):
    methods = [record.method for record in tiny_records]
    assert methods == ["sgl", "knn_baseline"]


def test_sgl_record_contents(tiny_records):
    record = tiny_records[0]
    assert record.n_nodes == 225
    assert len(record.wall_seconds) == 2
    assert all(seconds > 0 for seconds in record.wall_seconds)
    for stage in ("knn", "initial_tree", "embedding", "sensitivity"):
        assert stage in record.stage_seconds
    assert 0 < record.quality["density"] < 2.0
    assert record.quality["resistance_correlation"] > 0.5
    assert record.peak_memory_bytes > 0
    assert record.info["converged"]


def test_baseline_record_carries_one_sample_per_repeat(tiny_records):
    # The compare gate keeps each record's fastest sample; a baseline timed
    # once against the learner's two would let one stall fail the gate.
    baseline = tiny_records[1]
    assert len(baseline.wall_seconds) == 2
    assert all(seconds > 0 for seconds in baseline.wall_seconds)


def test_record_dict_roundtrip(tiny_records):
    record = tiny_records[0]
    rebuilt = BenchRecord.from_dict(json.loads(json.dumps(record.as_dict())))
    assert rebuilt == record


# ----------------------------------------------------------------------
# Artifact schema
# ----------------------------------------------------------------------
def test_artifact_roundtrip(tiny_records, tmp_path):
    artifact = make_artifact("unit", tiny_records, run_config={"repeats": 2})
    path = save_artifact(artifact, tmp_path / "BENCH_unit.json")
    loaded = load_artifact(path)
    assert loaded == artifact
    assert loaded["schema_version"] == 1
    assert len(loaded["results"]) == 2


def test_artifact_environment_records_cpu_and_blas(tiny_records):
    from repro.linalg.threads import blas_thread_counts

    environment = make_artifact("unit", tiny_records)["environment"]
    assert environment["cpu_count"] >= 1
    assert isinstance(environment["blas"], str) and environment["blas"]
    assert environment["blas_threads"] == blas_thread_counts()


def test_artifact_environment_records_cpu_model_and_commit(tiny_records):
    environment = make_artifact("unit", tiny_records)["environment"]
    assert isinstance(environment["cpu_model"], str) and environment["cpu_model"]
    sha, dirty = environment["git_sha"], environment["git_dirty"]
    # A git checkout names its commit; a copy without .git says so.
    if sha == "unknown":
        assert dirty is None
    else:
        assert len(sha) == 40 and int(sha, 16) >= 0
        assert isinstance(dirty, bool)


def test_validate_rejects_malformed(tiny_records):
    artifact = make_artifact("unit", tiny_records)
    broken = json.loads(json.dumps(artifact))
    del broken["results"][0]["wall_seconds"]
    with pytest.raises(ArtifactError):
        validate_artifact(broken)
    with pytest.raises(ArtifactError):
        validate_artifact({"schema": "something-else"})


def test_compare_flags_time_regression(tiny_records):
    baseline = make_artifact("unit", tiny_records)
    slowed = json.loads(json.dumps(baseline))
    for record in slowed["results"]:
        record["wall_seconds"] = [1.3 * value for value in record["wall_seconds"]]
    assert compare(baseline, baseline).ok
    report = compare(baseline, slowed)
    assert not report.ok
    assert all(reg.kind == "time" for reg in report.regressions)
    # The reverse direction (a speed-up) must pass.
    assert compare(slowed, baseline).ok


def _synthetic_record(embedding_seconds):
    """Hand-built schema-v1 record for stage-gate tests (stable timings)."""
    return {
        "scenario": "synthetic/unit",
        "method": "sgl",
        "n_nodes": 100,
        "n_edges_true": 200,
        "n_measurements": 50,
        "wall_seconds": [2.0],
        "stage_seconds": {
            "embedding": {"seconds": embedding_seconds, "calls": 10},
            "sensitivity": {"seconds": 0.5, "calls": 10},
        },
        "quality": {"resistance_correlation": 0.9, "density": 1.0},
        "info": {},
    }


def test_compare_flags_stage_regression():
    # Total wall time is identical on both sides: only the per-stage gate
    # can see the 30 % embedding slowdown.
    baseline = make_artifact("unit", [_synthetic_record(1.0)])
    candidate = make_artifact("unit", [_synthetic_record(1.3)])
    report = compare(baseline, candidate)
    assert not report.ok
    assert [reg.kind for reg in report.regressions] == ["stage"]
    assert "embedding" in report.regressions[0].message
    # Self-compare and the speed-up direction both pass.
    assert compare(baseline, baseline).ok
    assert compare(candidate, baseline).ok


def test_compare_stage_gate_exempts_fast_stages_and_notes_new_stages():
    base = _synthetic_record(1.0)
    cand = _synthetic_record(1.0)
    # 9x slower but under min_seconds: timer noise, exempt.
    base["stage_seconds"]["knn"] = {"seconds": 0.001, "calls": 1}
    cand["stage_seconds"]["knn"] = {"seconds": 0.009, "calls": 1}
    # A stage present on one side only is a note, not a failure.
    cand["stage_seconds"]["serve"] = {"seconds": 0.2, "calls": 1}
    report = compare(make_artifact("unit", [base]), make_artifact("unit", [cand]))
    assert report.ok
    assert any("serve" in note for note in report.notes)


def test_compare_flags_quality_regression(tiny_records):
    baseline = make_artifact("unit", tiny_records)
    worse = json.loads(json.dumps(baseline))
    worse["results"][0]["quality"]["resistance_correlation"] -= 0.2
    report = compare(baseline, worse)
    assert not report.ok
    assert any(reg.kind == "quality" for reg in report.regressions)


def test_compare_gates_density_independently_of_time_threshold():
    # CI compares against committed records with a loose 9x time threshold;
    # a learned graph twice as dense must still fail.
    baseline = make_artifact("unit", [_synthetic_record(1.0)])
    denser = _synthetic_record(1.0)
    denser["quality"]["density"] = 2.0
    report = compare(baseline, make_artifact("unit", [denser]), time_threshold=9.0)
    assert [reg.kind for reg in report.regressions] == ["density"]
    assert compare(baseline, baseline, time_threshold=9.0).ok


def test_compare_treats_new_scenarios_as_notes(tiny_records):
    baseline = make_artifact("unit", tiny_records[:1])
    candidate = make_artifact("unit", tiny_records)
    report = compare(baseline, candidate)
    assert report.ok
    assert report.notes


def test_compare_treats_absent_fallback_count_as_zero(tiny_records):
    # Pre-PR 6 artifacts never recorded info.engine_fallbacks; comparing a
    # new run (which records 0) against one must not report provenance
    # drift for every record.
    baseline = make_artifact("unit", tiny_records)
    stripped = json.loads(json.dumps(baseline))
    for record in stripped["results"]:
        record["info"].pop("engine_fallbacks", None)
    candidate = json.loads(json.dumps(stripped))
    for record in candidate["results"]:
        record["info"]["engine_fallbacks"] = 0
    report = compare(stripped, candidate)
    assert report.ok
    assert not any("fallbacks" in note for note in report.notes)
    # A real fallback count still surfaces as a note against the old record.
    candidate["results"][0]["info"]["engine_fallbacks"] = 3
    report = compare(stripped, candidate)
    assert any("fallbacks" in note for note in report.notes)


def test_compare_notes_a_one_edge_change_to_the_learned_graph(tiny_records, monkeypatch):
    import dataclasses

    from repro.core.sgl import SGLearner

    fit = SGLearner.fit

    def fit_plus_one_edge(self, *args, **kwargs):
        result = fit(self, *args, **kwargs)
        # A one-edge change too faint to move any quality metric.
        far = (0, result.graph.n_nodes - 1)
        assert not result.graph.has_edge(*far)
        faint = 1e-9 * float(result.graph.weights.min())
        return dataclasses.replace(result, graph=result.graph.add_edges([far], [faint]))

    monkeypatch.setattr(SGLearner, "fit", fit_plus_one_edge)
    changed = run_scenario(get_scenario("grid_2d/tiny"), repeats=2)
    baseline = make_artifact("unit", tiny_records[:1])
    candidate = make_artifact("unit", changed)
    assert candidate["results"][0]["info"]["graph_sha256"] != baseline["results"][0]["info"]["graph_sha256"]
    # Timing noise is not this test's subject; the change passes every
    # other gate and shows up as a note on its own line.
    report = compare(baseline, candidate, time_threshold=1e9)
    assert report.ok
    changed_notes = [note for note in report.notes if "learned graph changed" in note]
    assert len(changed_notes) == 1
    assert changed_notes[0].startswith("grid_2d/tiny (sgl): learned graph changed")
    assert not any("learned graph" in note for note in compare(baseline, baseline).notes)
    # Committed records from before the fingerprint say nothing about it.
    stripped = json.loads(json.dumps(baseline))
    stripped["results"][0]["info"].pop("graph_sha256")
    assert not any("learned graph" in note for note in compare(stripped, candidate).notes)


# ----------------------------------------------------------------------
# CLI (the acceptance-criteria flow)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_artifact_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "BENCH_smoke.json"
    code = main(["run", "--suite", "smoke", "--out", str(path), "--no-memory"])
    assert code == 0
    return path


def test_cli_smoke_run_emits_valid_artifact(smoke_artifact_path):
    artifact = load_artifact(smoke_artifact_path)
    assert artifact["tag"] == "smoke"
    scenarios = {record["scenario"] for record in artifact["results"]}
    methods = {record["method"] for record in artifact["results"]}
    assert len(scenarios) >= 5
    assert "sgl" in methods
    assert "knn_baseline" in methods  # >= 1 baseline rides along
    for record in artifact["results"]:
        if record["method"] == "sgl":
            assert record["stage_seconds"], record["scenario"]
            assert "resistance_correlation" in record["quality"]


def test_cli_self_compare_exits_zero(smoke_artifact_path):
    assert main(["compare", str(smoke_artifact_path), str(smoke_artifact_path)]) == 0


def test_cli_compare_fails_on_injected_slowdown(smoke_artifact_path, tmp_path):
    artifact = json.loads(smoke_artifact_path.read_text())
    for record in artifact["results"]:
        record["wall_seconds"] = [1.25 * value for value in record["wall_seconds"]]
    slow_path = tmp_path / "BENCH_slow.json"
    slow_path.write_text(json.dumps(artifact))
    assert main(["compare", str(smoke_artifact_path), str(slow_path)]) == 1


def test_cli_compare_warns_on_other_hardware(smoke_artifact_path, tmp_path, capsys):
    artifact = json.loads(smoke_artifact_path.read_text())
    artifact["environment"]["cpu_model"] = "Another CPU @ 1.00GHz"
    artifact["environment"]["cpu_count"] = artifact["environment"]["cpu_count"] + 2
    other_path = tmp_path / "BENCH_other.json"
    other_path.write_text(json.dumps(artifact))
    capsys.readouterr()
    assert main(["compare", str(smoke_artifact_path), str(other_path)]) == 0
    out = capsys.readouterr().out
    assert "WARNING: cpu_model differs" in out and "WARNING: cpu_count differs" in out
    # Old artifacts without a cpu_model warn about nothing they do not record.
    del artifact["environment"]["cpu_model"]
    artifact["environment"]["cpu_count"] -= 2
    other_path.write_text(json.dumps(artifact))
    assert main(["compare", str(smoke_artifact_path), str(other_path)]) == 0
    assert "WARNING" not in capsys.readouterr().out


def test_cli_list_runs(capsys):
    assert main(["list", "--suite", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "grid_2d/tiny" in out


def test_cli_rejects_unknown_baseline(tmp_path):
    code = main(
        [
            "run",
            "--scenario",
            "grid_2d/tiny",
            "--out",
            str(tmp_path / "x.json"),
            "--baselines",
            "bogus",
        ]
    )
    assert code == 2


# ----------------------------------------------------------------------
# Parallel suite runner (--jobs)
# ----------------------------------------------------------------------
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
