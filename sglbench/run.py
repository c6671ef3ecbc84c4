"""Run one benchmark workload and print its metrics.

    python3 sglbench/run.py --workload fit|serve|stream --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Lines before it, starting with ``#``, state the provenance and the details
behind the metrics.  See ``sglbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "resistance_corr": "1",
    "spectral_err": "1",
    "density": "edges/node",
}


def note(label: str, value) -> None:
    print(f"# {label}: {json.dumps(value)}", flush=True)


def make_workload(name: str, seed: int, workdir: Path):
    from workload_fit import FitWorkload
    from workload_serve import ServeWorkload
    from workload_stream import StreamWorkload

    if name == "fit":
        return FitWorkload(seed)
    return {"serve": ServeWorkload, "stream": StreamWorkload}[name](seed, workdir)


def end_to_end(workload, setups: list[float], phase) -> dict[str, float]:
    p50_ms, tail_ms, ops_per_s, how = workload.timing(phase)
    note("timing", how)
    note("setup_s of each set-up", setups)
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": p50_ms,
        "latency_tail_ms": tail_ms,
        "ops_per_s": ops_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(args, workdir: Path) -> dict:
    from spans import Tracer
    import layers
    from provenance import cpu_ticks, steal_share

    workload = make_workload(args.workload, args.seed, workdir)
    tracer = Tracer() if args.trace else None
    setups = []
    try:
        if tracer is None:
            for _ in range(SETUP_REPS):
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start)
            ticks = cpu_ticks()
            phase = workload.run(args.seconds)
            # Other tenants of the host slow every timing when this is high.
            note("cpu steal share during the timed phase", steal_share(ticks))
            metrics = end_to_end(workload, setups, phase)
        else:
            # Spans of the set-up count only toward the per-call means; the
            # untraced phase gives the base of the overhead figure.
            tracer.op = "setup"
            tracer.install()
            try:
                workload.setup()
            finally:
                tracer.uninstall()
            untraced = workload.run(args.seconds)
            tracer.install()
            try:
                phase = workload.run(args.seconds, tracer)
            finally:
                tracer.uninstall()
            metrics = layers.per_layer(
                tracer.spans,
                phase,
                untraced_ops_per_s=untraced.ops_per_s,
                traced_ops_per_s=phase.ops_per_s,
                overlapping=args.workload == "serve",
            )
            note("ops_per_s untraced, traced", [untraced.ops_per_s, phase.ops_per_s])
            note("unaccounted share of op wall time", metrics["trace.unaccounted_share"])
        quality = workload.quality(phase)
    finally:
        workload.close()
    units = END_TO_END_UNITS
    phases = [phase]
    if tracer is None:
        for name, (value, detail) in quality.items():
            metrics[name] = value
            if detail is not None:
                note(f"{name} per input", detail)
    else:
        units = layers.UNITS
        phases.append(untraced)  # its ops were attempted and checked too
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fit", "serve", "stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from provenance import provenance

    note("provenance", provenance(ROOT))
    workdir = ROOT / ".sglbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
