"""The repository benchmark: one command, one workload, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fit-default --seed 1 --seconds 15 --trace 0

Workloads: ``fit-default``, ``serve-read``, ``ingest-mix`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output carries every end-to-end metric; with ``--trace 1`` every
per-layer metric, from a separate traced run.  The line before it is the
per-run record (environment, sizes, rates, checks).  ``correct`` is
false when any correctness check failed; ``failed`` counts failed
checks plus operations that failed or answered non-2xx.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import signal
import sys
import time

from common import BenchError, WORK_ROOT, commit_id, make_workdir, nproc, require_program

#: Every end-to-end metric: (name, unit).  Kept in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("fit_s", "s"),
    ("acc_at_100", "ratio"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("capacity_rps", "1/s"),
)
WORKLOADS = ("fit-default", "serve-read", "ingest-mix")
#: Hard limit on one run; the benchmark contract allows 180 s.
RUN_DEADLINE_S = 170


def _on_deadline(signum, frame):
    raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")


def host_speed_s() -> float:
    """Seconds for a fixed pure-Python loop: a probe of how fast the
    host ran this run, so drift between runs can be told apart from
    changes in the program."""
    t0 = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - t0


def main(argv=None) -> int:
    """Run one workload; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.signal(signal.SIGTERM, _on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    workdir = make_workdir(args.workload)
    started = time.time()
    speed_before = host_speed_s()
    try:
        if args.workload == "fit-default":
            import fit_default

            summary = fit_default.run(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            import serving

            summary = serving.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)

    checks = summary["checks"]
    failed_checks = sorted(name for name, ok in checks.items() if not ok)
    attempted = summary["operations"] + len(checks)
    failed = summary["failed_operations"] + len(failed_checks)
    if args.trace:
        from ledger import with_units

        metrics = with_units(summary["metrics"])
    else:
        metrics = {
            name: {"value": float(summary["metrics"][name]), "unit": unit}
            for name, unit in END_TO_END
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "started_unix": round(started, 3),
        "wall_s": round(time.time() - started, 3),
        "host_speed_s": [round(speed_before, 4), round(host_speed_s(), 4)],
        "error_rate": failed / attempted,
        "checks": checks,
        **summary["record"],
    }
    records = WORK_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}.json"
    (records / name).write_text(json.dumps(record, indent=1, default=str))
    print("record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
