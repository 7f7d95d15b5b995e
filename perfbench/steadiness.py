"""Steadiness evidence: run workloads over several seeds, report spreads.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10 [--workload serve-read ...]
        [--first-seed 1] [--out perfbench/results/steadiness.json]

Runs the benchmark command once per (workload, seed), one run at a time,
and reports for every end-to-end metric the median and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``)
as a share of the median -- the spread the metric's bound in
``BENCHMARK.json`` must cover.  Each run's JSON line is appended to
``.perfbench/steadiness-runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    """Run the seeds, print and write the summary."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    log = ROOT / ".perfbench" / "steadiness-runs.jsonl"
    log.parent.mkdir(exist_ok=True)
    seconds = bench["run_seconds"]
    summary = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        walls, incorrect = [], 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.monotonic() - t0)
            if out.returncode != 0:
                print(out.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            incorrect += not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s, correct={result['correct']}, "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        rows = {}
        for name, vals in values.items():
            rows[name] = {
                "median": statistics.median(vals),
                "spread": round(spread(vals), 4),
                "bound": bounds.get(name),
            }
            print(f"  {name:14s} median {rows[name]['median']:12.4f}  "
                  f"spread {rows[name]['spread']:.4f}  bound {bounds.get(name)}")
        summary["workloads"][workload] = {
            "metrics": rows,
            "incorrect_runs": incorrect,
            "wall_s_median": round(statistics.median(walls), 2),
        }
    if args.out is not None:
        if args.out.exists():  # keep the other workloads' rows
            previous = json.loads(args.out.read_text())
            summary["workloads"] = {**previous["workloads"], **summary["workloads"]}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
