"""Benchmark harness: scenario registry, timed runner, artifacts, gating.

The subsystem has four layers (see DESIGN.md, "benchmark harness"):

* :mod:`repro.bench.registry`  -- declarative, seeded scenario specs crossing
  every graph family in the repo with scale tiers, measurement counts and
  noise levels, grouped into suites (``smoke``, ``full``, ``scaling``);
* :mod:`repro.bench.runner`    -- warmup + repeated timed runs of the SGL
  learner with per-stage counters and peak-memory tracking, plus quality
  metrics against the ground truth;
* :mod:`repro.bench.baselines` -- adapters running the repo's reference
  methods (scaled kNN, graphical Lasso, spectral sparsification, Kron
  reduction) on the same scenarios for a quality-vs-time frontier;
* :mod:`repro.bench.results`   -- the versioned ``BENCH_<tag>.json`` artifact
  schema and :func:`~repro.bench.results.compare`, the regression gate.

Serving and online learning are measured end to end by ``sglbench/run.py
--workload serve|stream`` at the repository root, which checks every answer
against an independent scipy solve.

Drive it from the command line::

    python -m repro.bench list
    python -m repro.bench run --suite smoke --out BENCH_smoke.json
    python -m repro.bench run --suite paper --jobs 4
    python -m repro.bench compare BENCH_main.json BENCH_pr.json
"""

from repro.bench.registry import (
    FAMILIES,
    ScenarioSpec,
    get_scenario,
    iter_suite,
    list_scenarios,
    list_suites,
    register_scenario,
)
from repro.bench.baselines import BaselineOutcome, available_baselines, run_baseline
from repro.bench.runner import BenchRecord, quality_metrics, run_scenario, run_suite
from repro.bench.results import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    ArtifactError,
    ComparisonReport,
    Regression,
    compare,
    load_artifact,
    make_artifact,
    save_artifact,
    validate_artifact,
)

__all__ = [
    "FAMILIES",
    "ScenarioSpec",
    "get_scenario",
    "iter_suite",
    "list_scenarios",
    "list_suites",
    "register_scenario",
    "BaselineOutcome",
    "available_baselines",
    "run_baseline",
    "BenchRecord",
    "quality_metrics",
    "run_scenario",
    "run_suite",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "ArtifactError",
    "ComparisonReport",
    "Regression",
    "compare",
    "load_artifact",
    "make_artifact",
    "save_artifact",
    "validate_artifact",
]
