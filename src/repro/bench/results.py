"""Versioned JSON benchmark artifacts and the regression gate.

Artifact layout (``BENCH_<tag>.json``, schema v1)::

    {
      "schema": "repro.bench",
      "schema_version": 1,
      "tag": "smoke",
      "created_at": "2026-07-30T12:00:00+00:00",
      "environment": {"python": ..., "numpy": ..., "scipy": ..., "platform": ...,
                      "cpu_count": ..., "blas": ..., "blas_threads": {...}},
      "run_config": {"warmup": 0, "repeats": 1, ...},
      "results": [ <BenchRecord.as_dict()>, ... ]
    }

:func:`compare` diffs two artifacts record-by-record (keyed on
``(scenario, method)``) and flags

* *time regressions*: the fastest repeat's wall-clock slowed down by more
  than ``time_threshold`` (relative, default 20 % — so an injected 25 %
  slowdown fails the gate; the fastest repeat is used because the mean is
  dominated by scheduler interference on busy machines);
* *stage regressions*: any individual pipeline stage's accumulated seconds
  slowed down by more than ``time_threshold`` — total wall time can hide a
  stage-level regression offset by a win elsewhere;
* *quality regressions*: effective-resistance correlation dropped by more
  than ``quality_threshold`` (absolute), or learned density grew by more
  than ``time_threshold`` (relative).

Records present on only one side are reported as notes, not failures, so
adding scenarios never breaks the gate; so is engine-provenance drift (a
changed ``resistance_engine`` / ``embedding_engine`` or a moved
``engine_fallbacks`` count in a record's ``info`` block).  Few-millisecond
timings are exempt
from the time gate (``min_seconds``) — they are dominated by timer noise.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.bench.runner import BenchRecord

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "ArtifactError",
    "ComparisonReport",
    "Regression",
    "compare",
    "environment_info",
    "load_artifact",
    "make_artifact",
    "save_artifact",
    "validate_artifact",
]

SCHEMA_NAME = "repro.bench"
SCHEMA_VERSION = 1


class ArtifactError(ValueError):
    """A benchmark artifact does not conform to the schema."""


def environment_info() -> dict:
    """Interpreter / library / platform provenance embedded in artifacts.

    Besides versions it records what a timing depends on: the CPU count,
    numpy's BLAS vendor and the thread count of every loaded OpenBLAS copy
    (outside :func:`repro.linalg.threads.single_threaded_blas`, i.e. what
    non-learner code runs with).
    """
    import numpy
    import scipy

    from repro.linalg.threads import blas_thread_counts

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas_vendor = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas": blas_vendor,
        "blas_threads": blas_thread_counts(),
    }


def make_artifact(
    tag: str,
    records: list[BenchRecord] | list[dict],
    *,
    run_config: dict | None = None,
) -> dict:
    """Assemble a schema-v1 artifact from benchmark records."""
    results = [
        record.as_dict() if isinstance(record, BenchRecord) else dict(record)
        for record in records
    ]
    artifact = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "tag": tag,
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": environment_info(),
        "run_config": dict(run_config or {}),
        "results": results,
    }
    validate_artifact(artifact)
    return artifact


def validate_artifact(artifact: object) -> dict:
    """Check an artifact against schema v1; return it on success.

    Raises
    ------
    ArtifactError
        On any structural violation, with a message naming the offending
        field.
    """
    if not isinstance(artifact, dict):
        raise ArtifactError("artifact must be a JSON object")
    if artifact.get("schema") != SCHEMA_NAME:
        raise ArtifactError(
            f"schema must be {SCHEMA_NAME!r}, got {artifact.get('schema')!r}"
        )
    if artifact.get("schema_version") != SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported schema_version {artifact.get('schema_version')!r} "
            f"(this reader supports {SCHEMA_VERSION})"
        )
    for key, kind in (
        ("tag", str),
        ("created_at", str),
        ("environment", dict),
        ("run_config", dict),
        ("results", list),
    ):
        if not isinstance(artifact.get(key), kind):
            raise ArtifactError(f"artifact[{key!r}] must be a {kind.__name__}")
    for idx, record in enumerate(artifact["results"]):
        where = f"results[{idx}]"
        if not isinstance(record, dict):
            raise ArtifactError(f"{where} must be an object")
        for key, kind in (
            ("scenario", str),
            ("method", str),
            ("n_nodes", int),
            ("n_edges_true", int),
            ("n_measurements", int),
            ("wall_seconds", list),
            ("stage_seconds", dict),
            ("quality", dict),
            ("info", dict),
        ):
            if not isinstance(record.get(key), kind):
                raise ArtifactError(f"{where}[{key!r}] must be a {kind.__name__}")
        if record["n_nodes"] <= 0:
            raise ArtifactError(f"{where}['n_nodes'] must be positive")
        for value in record["wall_seconds"]:
            if not isinstance(value, (int, float)) or value < 0:
                raise ArtifactError(f"{where}['wall_seconds'] entries must be >= 0")
        for name, value in record["quality"].items():
            if not isinstance(value, (int, float)):
                raise ArtifactError(f"{where}['quality'][{name!r}] must be a number")
        for name, stat in record["stage_seconds"].items():
            if not isinstance(stat, dict) or "seconds" not in stat:
                raise ArtifactError(
                    f"{where}['stage_seconds'][{name!r}] must be "
                    "{'seconds': ..., 'calls': ...}"
                )
    return artifact


def save_artifact(artifact: dict, path: str | Path) -> Path:
    """Validate and write an artifact to ``path`` (pretty-printed JSON)."""
    validate_artifact(artifact)
    path = Path(path)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=False) + "\n")
    return path


def load_artifact(path: str | Path) -> dict:
    """Read and validate an artifact from disk."""
    path = Path(path)
    try:
        artifact = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not valid JSON ({exc})") from exc
    return validate_artifact(artifact)


# ----------------------------------------------------------------------
# Regression gating
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One flagged regression between two artifacts."""

    scenario: str
    method: str
    kind: str  # "time" | "stage" | "quality" | "density"
    baseline: float
    candidate: float
    message: str


@dataclass
class ComparisonReport:
    """Outcome of :func:`compare`: regressions fail the gate, notes do not."""

    regressions: list[Regression] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    n_compared: int = 0

    @property
    def ok(self) -> bool:
        """True when no regression was flagged."""
        return not self.regressions

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"compared {self.n_compared} (scenario, method) records: "
            + ("OK" if self.ok else f"{len(self.regressions)} regression(s)")
        ]
        for reg in self.regressions:
            lines.append(f"  REGRESSION [{reg.kind}] {reg.scenario} ({reg.method}): {reg.message}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def compare(
    baseline: dict,
    candidate: dict,
    *,
    time_threshold: float = 0.20,
    quality_threshold: float = 0.05,
    min_seconds: float = 1e-2,
) -> ComparisonReport:
    """Diff two artifacts and flag regressions beyond the thresholds.

    Parameters
    ----------
    baseline, candidate:
        Validated artifacts (see :func:`load_artifact`); ``candidate`` is the
        run under test, ``baseline`` the reference it must not regress from.
    time_threshold:
        Maximum tolerated relative slowdown of the *fastest repeat* wall
        time (0.20 = 20 %) — the fastest repeat is far less sensitive to
        scheduler interference than the mean.  Also used as the relative
        bound on density growth.
    quality_threshold:
        Maximum tolerated absolute drop in ``resistance_correlation``.
    min_seconds:
        Records whose baseline wall time is below this are exempt from the
        time gate (timer noise dominates few-millisecond records).
    """
    validate_artifact(baseline)
    validate_artifact(candidate)
    report = ComparisonReport()

    base_index = {(r["scenario"], r["method"]): r for r in baseline["results"]}
    cand_index = {(r["scenario"], r["method"]): r for r in candidate["results"]}

    for key in sorted(base_index.keys() - cand_index.keys()):
        report.notes.append(f"{key[0]} ({key[1]}): missing from candidate")
    for key in sorted(cand_index.keys() - base_index.keys()):
        report.notes.append(f"{key[0]} ({key[1]}): new in candidate")

    for key in sorted(base_index.keys() & cand_index.keys()):
        scenario, method = key
        base, cand = base_index[key], cand_index[key]
        report.n_compared += 1

        base_time = min(base["wall_seconds"], default=0.0)
        cand_time = min(cand["wall_seconds"], default=0.0)
        if base_time >= min_seconds and cand_time > base_time * (1.0 + time_threshold):
            slowdown = cand_time / base_time - 1.0
            report.regressions.append(
                Regression(
                    scenario=scenario,
                    method=method,
                    kind="time",
                    baseline=base_time,
                    candidate=cand_time,
                    message=(
                        f"fastest wall time {base_time:.4f}s -> {cand_time:.4f}s "
                        f"(+{slowdown:.0%}, threshold {time_threshold:.0%})"
                    ),
                )
            )

        # Per-stage gate: total wall time can hide a stage-level regression
        # offset by a win elsewhere (e.g. refine 2x slower behind a faster
        # sensitivity pass), so every stage shared by both records is gated
        # with the same relative threshold.  Stages present on only one
        # side are a note — pipelines are allowed to add or drop stages.
        base_stages = base.get("stage_seconds", {})
        cand_stages = cand.get("stage_seconds", {})
        for stage in sorted(base_stages.keys() - cand_stages.keys()):
            report.notes.append(f"{scenario} ({method}): stage {stage!r} missing from candidate")
        for stage in sorted(cand_stages.keys() - base_stages.keys()):
            report.notes.append(f"{scenario} ({method}): stage {stage!r} new in candidate")
        for stage in sorted(base_stages.keys() & cand_stages.keys()):
            base_stage = float(base_stages[stage].get("seconds", 0.0))
            cand_stage = float(cand_stages[stage].get("seconds", 0.0))
            if base_stage >= min_seconds and cand_stage > base_stage * (1.0 + time_threshold):
                slowdown = cand_stage / base_stage - 1.0
                report.regressions.append(
                    Regression(
                        scenario=scenario,
                        method=method,
                        kind="stage",
                        baseline=base_stage,
                        candidate=cand_stage,
                        message=(
                            f"stage {stage!r} {base_stage:.4f}s -> {cand_stage:.4f}s "
                            f"(+{slowdown:.0%}, threshold {time_threshold:.0%})"
                        ),
                    )
                )

        base_corr = base["quality"].get("resistance_correlation")
        cand_corr = cand["quality"].get("resistance_correlation")
        if base_corr is not None and cand_corr is not None:
            if cand_corr < base_corr - quality_threshold:
                report.regressions.append(
                    Regression(
                        scenario=scenario,
                        method=method,
                        kind="quality",
                        baseline=base_corr,
                        candidate=cand_corr,
                        message=(
                            f"resistance correlation {base_corr:.4f} -> {cand_corr:.4f} "
                            f"(drop > {quality_threshold})"
                        ),
                    )
                )

        # Provenance drift is worth a note even when the numbers pass: a
        # changed resistance engine or a warm path that started falling
        # back explains timing shifts the thresholds might just absorb.
        for info_key, label in (
            ("resistance_engine", "resistance engine"),
            ("engine_fallbacks", "engine fallbacks"),
            ("embedding_engine", "embedding engine"),
        ):
            base_val = base.get("info", {}).get(info_key)
            cand_val = cand.get("info", {}).get(info_key)
            if info_key == "engine_fallbacks":
                # Pre-PR 6 artifacts never recorded fallback counts; an
                # absent value means "none observed", not a provenance
                # change — treat it as zero on either side.
                base_val = int(base_val or 0)
                cand_val = int(cand_val or 0)
            if base_val is not None and cand_val is not None and base_val != cand_val:
                report.notes.append(
                    f"{scenario} ({method}): {label} changed "
                    f"{base_val!r} -> {cand_val!r}"
                )

        base_density = base["quality"].get("density")
        cand_density = cand["quality"].get("density")
        if base_density is not None and cand_density is not None and base_density > 0:
            if cand_density > base_density * (1.0 + time_threshold):
                report.regressions.append(
                    Regression(
                        scenario=scenario,
                        method=method,
                        kind="density",
                        baseline=base_density,
                        candidate=cand_density,
                        message=(
                            f"learned density {base_density:.3f} -> {cand_density:.3f} "
                            f"(grew > {time_threshold:.0%})"
                        ),
                    )
                )
    return report
