"""Steadiness: rerun each workload and compare every end-to-end metric's spread with its bound.

    python3 sglbench/steady.py --runs 10 --first-seed 100 [--workloads fit,serve]
                               [--out set1.json] [--against set0.json]

Runs ``sglbench/run.py`` once per seed (``--first-seed`` onwards), one run at
a time, for ``run_seconds`` of ``BENCHMARK.json``.  For each workload and
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the quartile distance as a share of the median, beside the
metric's bound.  ``!`` flags a spread above the bound (``setup_s`` is not
held to it); ``--against`` also flags a median worse than an earlier set's
by more than the bound.  The exit code is 1 when anything is flagged or a
run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEAL_NOTE = "# cpu steal share during the timed phase: "


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "sglbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(STEAL_NOTE):
            result["steal"] = json.loads(line[len(STEAL_NOTE):])
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="write every run's result here as JSON")
    parser.add_argument("--against", type=Path, help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}

    results: dict[str, list[dict]] = {}
    flagged = False
    for workload in workloads:
        runs = results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr, flush=True)
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1},"
              f" failed share {sorted(shares)}, cpu steal share by run"
              f" {[round(run.get('steal', float('nan')), 3) for run in runs]}")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name, (bound, better) in bounds.items():
            median, q1, q3, spread = summarize([run["metrics"][name]["value"] for run in runs])
            flag = "!" if spread > bound and name != "setup_s" else " "
            line = f"{flag} {name:<16}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{bound:>7.2f}"
            if workload in earlier:
                base = statistics.median(run["metrics"][name]["value"] for run in earlier[workload])
                worse = (median - base) / abs(base) if better == "lower" else (base - median) / abs(base)
                if worse > bound:
                    flag = "!"
                line = flag + line[1:] + f"   vs earlier median {base:.6g} ({worse:+.3f} worse)"
            flagged |= flag == "!"
            print(line)
        if workload in earlier:
            before = {run["failed"] / run["attempted"] for run in earlier[workload]}
            if before != shares:
                print(f"! failed share differs from the earlier set: {sorted(before)}")
                flagged = True
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
