"""Check one ``sglbench`` run, or write it as the committed record of its workload.

    python3 .github/check_sglbench.py RUN_OUTPUT
    python3 .github/check_sglbench.py RUN_OUTPUT --against BENCH_sglbench_<workload>.json
    python3 .github/check_sglbench.py RUN_OUTPUT --write BENCH_sglbench_<workload>.json --command CMD

``RUN_OUTPUT`` is the standard output of ``python3 sglbench/run.py``: ``#``
lines, then the run's JSON result on the last line.  Every mode fails the
run unless it attempted ops and none failed.  ``--against`` also fails it
unless, against the committed record,

* every timing metric is within ``SLACK`` (8x): ``ops_per_s`` at least 1/8
  of the record's, ``setup_s``, ``latency_p50_ms`` and ``latency_tail_ms`` at
  most 8x.  Hosted runners are slower and noisier than the machine that
  made the record, so this catches order-of-magnitude regressions only
  (a batcher that waits out its deadline on every request, say);
* every quality metric is within its ``BENCHMARK.json`` bound of the
  record's, relative, in the direction ``BENCHMARK.json`` calls worse.

``--write`` stores the run with the command that produced it and its
``# provenance`` line.  Exit status: 0 when every check holds, 1 when one
fails, 2 on unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: How many times slower than the record a timing may be.
SLACK = 8.0
TIMINGS = ("setup_s", "latency_p50_ms", "latency_tail_ms", "ops_per_s")
QUALITY = ("resistance_corr", "spectral_err", "density")


def read_run(path: Path) -> tuple[dict, dict | None]:
    """The run's JSON result and the value of its ``# provenance`` line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    provenance = None
    for line in lines:
        if line.startswith("# provenance: "):
            provenance = json.loads(line[len("# provenance: "):])
    return json.loads(lines[-1]), provenance


def check_ops(result: dict) -> list[str]:
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    if result["attempted"] < 1:
        return ["no op was attempted"]
    if result["failed"] != 0:
        return [f"{result['failed']} of {result['attempted']} ops failed their checks"]
    return []


def check_against(result: dict, record: dict, better: dict, bounds: dict) -> list[str]:
    failures = []
    got = result["metrics"]
    base = record["result"]["metrics"]
    for name in TIMINGS + QUALITY:
        value, committed = got[name]["value"], base[name]["value"]
        higher = better[name] == "higher"
        if name in TIMINGS:
            limit = committed / SLACK if higher else committed * SLACK
            rule = f"{SLACK:g}x slack"
        else:
            limit = committed * (1 - bounds[name]) if higher else committed * (1 + bounds[name])
            rule = f"bound {bounds[name]:g}"
        ok = value >= limit if higher else value <= limit
        print(
            f"{'OK  ' if ok else 'FAIL'} {name}: {value:.6g} {got[name]['unit']} "
            f"(record {committed:.6g}, {'floor' if higher else 'ceiling'} {limit:.6g}, {rule})"
        )
        if not ok:
            failures.append(f"{name} {value:.6g} is past {limit:.6g}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_output", type=Path, help="standard output of sglbench/run.py")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", type=Path, metavar="RECORD",
                      help="committed BENCH_sglbench_<workload>.json to hold the run to")
    mode.add_argument("--write", type=Path, metavar="RECORD",
                      help="write the run as the record of its workload")
    parser.add_argument("--command", help="the command that produced RUN_OUTPUT (with --write)")
    args = parser.parse_args(argv)
    if args.write is not None and not args.command:
        parser.error("--write needs --command")
    try:
        result, provenance = read_run(args.run_output)
        record = None
        if args.against is not None:
            record = json.loads(args.against.read_text(encoding="utf-8"))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = [name for name in TIMINGS + QUALITY if name not in result["metrics"]]
    if args.write is not None and missing:
        print(f"error: a record needs an untraced run; missing {missing}", file=sys.stderr)
        return 2
    failures = check_ops(result)
    if record is not None:
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        try:
            failures += check_against(result, record, better, bounds)
        except KeyError as exc:
            print(f"error: metric {exc} missing from the run or the record", file=sys.stderr)
            return 2
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if args.write is not None:
        entry = {"command": args.command, "provenance": provenance, "result": result}
        args.write.write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
