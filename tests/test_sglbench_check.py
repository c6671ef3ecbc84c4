"""CI's sglbench checker (``.github/check_sglbench.py``) fires on each kind of regression.

The checker holds a fresh ``sglbench/run.py`` output to the committed
``BENCH_sglbench_<workload>.json``: no failed op, timings within 8x, and
quality metrics within their ``BENCHMARK.json`` bounds.
"""

import importlib.util
import json
import pathlib

import pytest

CHECKER = pathlib.Path(__file__).resolve().parent.parent / ".github" / "check_sglbench.py"

END_TO_END = {
    "setup_s": (0.5, "s"),
    "latency_p50_ms": (1000.0, "ms"),
    "latency_tail_ms": (1000.0, "ms"),
    "ops_per_s": (1.0, "1/s"),
    "peak_rss_mb": (250.0, "MiB"),
    "resistance_corr": (0.79, "1"),
    "spectral_err": (0.0865, "1"),
    "density": (1.018, "edges/node"),
}


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_sglbench", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(path, *, failed=0, attempted=15, **overrides):
    metrics = {
        name: {"value": overrides.get(name, value), "unit": unit}
        for name, (value, unit) in END_TO_END.items()
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    path.write_text(
        '# provenance: {"commit": "abc", "dirty": false}\n'
        '# timing: "median of 15 fits"\n'
        + json.dumps(result) + "\n"
    )
    return path


@pytest.fixture
def record(checker, tmp_path):
    path = tmp_path / "BENCH_sglbench_fit.json"
    run = write_run(tmp_path / "base.out")
    command = "python3 sglbench/run.py --workload fit --seed 1 --seconds 5"
    assert checker.main([str(run), "--write", str(path), "--command", command]) == 0
    saved = json.loads(path.read_text())
    assert saved["command"] == command
    assert saved["provenance"] == {"commit": "abc", "dirty": False}
    return path


def test_the_recorded_run_passes_against_itself(checker, record, tmp_path):
    run = write_run(tmp_path / "same.out")
    assert checker.main([str(run), "--against", str(record)]) == 0


def test_a_failed_op_fails_every_mode(checker, record, tmp_path):
    run = write_run(tmp_path / "failed.out", failed=1)
    assert checker.main([str(run)]) == 1
    assert checker.main([str(run), "--against", str(record)]) == 1
    assert checker.main([str(write_run(tmp_path / "none.out", attempted=0))]) == 1


@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"ops_per_s": 1.0 / 7.9}, 0),
        ({"ops_per_s": 1.0 / 8.1}, 1),
        ({"latency_p50_ms": 7900.0, "latency_tail_ms": 7900.0}, 0),
        ({"latency_tail_ms": 8100.0}, 1),
        ({"setup_s": 4.1}, 1),
    ],
)
def test_timings_get_eight_times_slack(checker, record, tmp_path, overrides, code):
    run = write_run(tmp_path / "slow.out", **overrides)
    assert checker.main([str(run), "--against", str(record)]) == code


@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"spectral_err": 0.0865 * 1.19}, 0),
        ({"spectral_err": 0.245}, 1),
        ({"resistance_corr": 0.79 * 0.91}, 0),
        ({"resistance_corr": 0.79 * 0.89}, 1),
        ({"density": 1.018 * 1.06}, 1),
        # Better than the record is never a failure.
        ({"spectral_err": 0.01, "resistance_corr": 0.99, "density": 1.0}, 0),
    ],
)
def test_quality_is_held_to_its_benchmark_bound(checker, record, tmp_path, overrides, code):
    run = write_run(tmp_path / "quality.out", **overrides)
    assert checker.main([str(run), "--against", str(record)]) == code


def test_a_traced_run_is_checked_for_failed_ops_only(checker, tmp_path):
    traced = tmp_path / "traced.out"
    traced.write_text(json.dumps({
        "correct": True, "attempted": 30, "failed": 0,
        "metrics": {"knn.busy_s": {"value": 0.2, "unit": "s/op"}},
    }) + "\n")
    assert checker.main([str(traced)]) == 0
    # It cannot become a record: it carries no end-to-end metrics.
    assert checker.main([
        str(traced), "--write", str(tmp_path / "r.json"), "--command", "x",
    ]) == 2


def test_unreadable_input_exits_2(checker, tmp_path):
    assert checker.main([str(tmp_path / "missing.out")]) == 2
    empty = tmp_path / "empty.out"
    empty.write_text("")
    assert checker.main([str(empty)]) == 2
