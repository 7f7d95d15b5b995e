"""Shared plumbing for the benchmark: paths, statistics, the served process.

Everything the benchmark writes lands under ``.perfbench/`` at the root
of the checkout it runs from.  The program under test is imported from
``src/`` of that same checkout and started as ``python3 -m repro serve``
(or through :mod:`traced_serve` for traced runs).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench"

#: The one clock every process uses, so spans recorded by the server,
#: its workers and the load generator share a time base.
clock = time.monotonic


class BenchError(RuntimeError):
    """The benchmark cannot run or the program misbehaved fatally."""


def require_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))


def make_workdir(name: str) -> Path:
    """A fresh scratch directory for one run (removed by the caller)."""
    path = WORK_ROOT / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env(directory: Path) -> dict:
    """Environment for program subprocesses: this checkout's sources,
    temporary files kept in ``directory``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(directory)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    """Median; 0.0 when empty."""
    return pct(values, 50)


def rss_peak_mb(pids) -> float:
    """Sum of the peak resident sets (``VmHWM``) of live processes."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def self_rss_peak_mb() -> float:
    """Peak resident set of this process."""
    return rss_peak_mb([os.getpid()])


def commit_id() -> str:
    """The checkout's commit, when it is a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class ServerProcess:
    """One ``repro serve`` subprocess: start, wait for /healthz, stop.

    The server runs in its own session so that stopping it can reach
    every process it forked, even when the graceful drain fails.
    """

    def __init__(self, state: Path, artifact: Path, serve_args, trace_dir=None):
        #: The server's own directory: its log, temporary files and
        #: whatever ``serve_args`` point into it (journal, store).
        self.state = state
        self.artifact = artifact
        self.serve_args = [str(a) for a in serve_args]
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._log = None

    def start(self, timeout: float = 120.0) -> float:
        """Boot; returns seconds until ``/healthz`` answered 200."""
        from loadgen import blocking_request

        argv = ["serve", str(self.artifact), "--port", "0", *self.serve_args]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [
                sys.executable,
                str(BENCH_DIR / "traced_serve.py"),
                str(self.trace_dir),
                *argv,
            ]
        log_path = self.state / "server.log"
        self._log = open(log_path, "w")
        t0 = clock()
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(self.state),
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        deadline = t0 + timeout
        while self.port is None:
            if self.proc.poll() is not None or clock() > deadline:
                raise BenchError(
                    f"server did not start: {log_path.read_text()[-2000:]}"
                )
            for line in log_path.read_text().splitlines():
                if line.startswith("serving artifact") and "http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    self.port = int(address.rsplit(":", 1)[1])
                    break
            else:
                time.sleep(0.005)
        while True:
            try:
                status, _ = blocking_request(self.port, "GET", "/healthz")
                if status == 200:
                    return clock() - t0
            except OSError:
                pass
            if self.proc.poll() is not None or clock() > deadline:
                raise BenchError("server never answered /healthz")
            time.sleep(0.005)

    def get_json(self, path: str):
        """GET a JSON route; raises on a non-200 answer."""
        from loadgen import blocking_request

        status, body = blocking_request(self.port, "GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(body)

    def get_text(self, path: str) -> str:
        """GET a text route; raises on a non-200 answer."""
        from loadgen import blocking_request

        status, body = blocking_request(self.port, "GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return body.decode("utf-8")

    def pids(self) -> list[int]:
        """The server's pid plus the pids of its live workers."""
        pids = [self.proc.pid]
        try:
            health = self.get_json("/healthz")
        except (OSError, BenchError):
            return pids
        for row in health.get("serving", {}).get("worker_info", []):
            if row.get("pid"):
                pids.append(int(row["pid"]))
        return pids

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL the session if needed."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            self.proc.wait()
        finally:
            self.proc = None
            if self._log is not None:
                self._log.close()
                self._log = None


def scrape_metric(text: str, name: str, labels: dict | None = None) -> float:
    """Sum of the samples of one Prometheus series family in ``text``."""
    total = 0.0
    for line in text.splitlines():
        if not line.startswith(name) or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        series, _, label_text = head.partition("{")
        if series != name:
            continue
        if labels and any(
            f'{key}="{val}"' not in label_text for key, val in labels.items()
        ):
            continue
        total += float(value)
    return total
