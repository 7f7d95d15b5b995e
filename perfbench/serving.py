"""``serve-read`` and ``ingest-mix``: drive ``repro serve`` over HTTP.

Set-up generates the world, fits and saves the artifact in this
process, then boots the server several times (each boot is timed until
``/healthz`` answers); the last server is warmed (query index built, a
worker attached) and measured.  Traced runs first measure an untraced server
for half the open- and closed-loop time, then boot a traced one (see
``traced_serve.py``) and measure it; per-layer metrics come from the
traced server only.
"""

from __future__ import annotations

import json
import shutil

from common import BenchError, ServerProcess, clock, median, nproc, pct, rss_peak_mb
from inputs import (
    HOLDOUT, INGEST_SHAPE, INGEST_USERS, SERVE_USERS, DeltaStream, IngestReadMix,
    ServeReadMix, SpecMaker, label_ops, make_world, poisson_times, rng_for, write_op,
)
from ledger import (
    client_metrics, fit_ledger, layer_span_metrics, request_ledger,
    scrape_metrics, self_time_by_name,
)
from loadgen import run_closed_loop, run_open_loop
from spans import Recorder, install_fit_wrappers, load_spans, span_dicts

#: Server boots per run; setup_s uses their median boot time.
BOOTS = 3
#: Set-up fits per untraced run (the fit is short, so one sample is
#: noisy); fit_s is their median and setup_s counts one median fit.
#: Each fit holds out a different fold of the labels, and acc_at_100
#: pools the folds, so it rests on three times as many users.
FIT_REPEATS = 3
#: Open-loop dispatcher lag (p90) above which the run is invalid: the
#: generator, not the server, fell behind.
LAG_LIMIT_MS = 25.0
#: Latency limit stated for the read p90 at the offered rate.
READ_P90_LIMIT_MS = 250.0

SERVE_READ = {
    "users": SERVE_USERS,
    "shape": {},
    "params": {"engine": "vectorized", "n_iterations": 4, "burn_in": 1},
    "serve_args": [],
    "rate": 30.0,  # offered requests per second, open loop
    "open_share": 0.3,  # of --seconds; the rest is the closed loop
    # The phase whose reads give read_p50_ms / read_p90_ms.  Open-loop
    # reads on the threaded server are bimodal (keep-alive stall or
    # not, depending on each connection's gap; see README), so the
    # gated reads are the closed loop's; the open loop's are recorded.
    "gated_reads": "closed",
    "writes_after": 100,  # sequential /ingest requests after the reads
}
INGEST_MIX = {
    "users": INGEST_USERS,
    "shape": INGEST_SHAPE,
    "params": {"engine": "partitioned", "n_iterations": 4, "burn_in": 1},
    "serve_args": ["--workers", "1"],
    "rate": 15.0,
    "write_share": 1 / 3,
    "open_share": 0.85,
    "gated_reads": "open",
}


class Run:
    """State shared by the phases of one serving run."""

    def __init__(self, name, cfg, seed, seconds, trace, workdir):
        self.name = name
        self.cfg = cfg
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.checks: dict[str, bool] = {}
        self.results = []  # every client result of the run
        self.conns = nproc()
        self.record = {"connections": self.conns, "offered_rps": cfg["rate"],
                       "lag_limit_ms": LAG_LIMIT_MS,
                       "read_p90_limit_ms": READ_P90_LIMIT_MS}

    # -- set-up ------------------------------------------------------------

    def build_artifact(self) -> float:
        """Generate, fit, save; returns the seconds a single build takes.

        Traced runs record the fit's layers in this process
        (``self.recorder``); the same wrappers then time every
        in-process artifact load of the correctness checks.
        """
        if self.trace:
            self.recorder = Recorder()
            install_fit_wrappers(self.recorder)
        from repro import MLPModel, MLPParams
        from repro.evaluation.metrics import accuracy_at
        from repro.evaluation.splits import k_fold_label_splits
        from repro.serving.artifacts import save_result

        t0 = clock()
        dataset, _ = make_world(self.cfg["users"], self.seed, **self.cfg["shape"])
        generate_s = clock() - t0
        folds = k_fold_label_splits(dataset, round(1 / HOLDOUT), seed=self.seed)
        params = MLPParams(n_jobs=min(2, self.conns), **self.cfg["params"])
        self.artifact = self.workdir / "serve.mlp.npz"
        fits, predicted, truth = [], [], []
        for split in folds[:1 if self.trace else FIT_REPEATS]:
            t1 = clock()
            result = MLPModel(params).fit(split.train_dataset)
            self.artifact_id = save_result(result, self.artifact)
            fits.append(clock() - t1)
            predicted += [result.predicted_home(u) for u in split.test_user_ids]
            truth += split.test_truth
        self.fit_s = median(fits)
        self.record["fit_samples_s"] = fits
        self.acc = accuracy_at(dataset.gazetteer, predicted, truth, 100)
        self.gazetteer = dataset.gazetteer
        self.n_users = dataset.n_users
        self.record["world"] = {
            "users": dataset.n_users, "following": len(dataset.following),
            "tweeting": len(dataset.tweeting), "held_out": len(predicted),
            "holdout_share": HOLDOUT, "folds_fitted": len(fits),
        }
        return generate_s + self.fit_s

    def boot(self, tag: str, traced: bool = False) -> tuple[ServerProcess, float]:
        """Start a server on fresh journal/store directories; returns it
        and the seconds until ``/healthz`` answered."""
        args = list(self.cfg["serve_args"])
        state = self.workdir / tag
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir()
        if self.name == "ingest-mix":
            args += ["--journal", state / "journal", "--store", state / "store"]
        trace_dir = None
        if traced:
            trace_dir = state / "spans"
            trace_dir.mkdir()
        server = ServerProcess(state, self.artifact, args, trace_dir)
        try:
            return server, server.start()
        except BaseException:
            server.stop()
            raise

    def warm(self, server) -> float:
        """Finish lazy set-up: build the query index, attach a worker."""
        from loadgen import blocking_request

        t0 = clock()
        server.get_json("/query/top-cities?k=1")
        body = json.dumps({"users": [{"user_id": 0}]}).encode()
        status, _ = blocking_request(server.port, "POST", "/predict-home", body)
        if status != 200:
            raise BenchError(f"warm-up predict answered {status}")
        return clock() - t0

    def setup(self) -> ServerProcess:
        """Build the artifact, boot BOOTS times, keep and warm the last."""
        build_s = self.build_artifact()
        boots = []
        server = None
        for i in range(BOOTS):
            if server is not None:
                server.stop()
            server, seconds = self.boot(f"boot{i}")
            boots.append(seconds)
        try:
            warm_s = self.warm(server)
        except BaseException:
            server.stop()
            raise
        self.setup_s = build_s + median(boots) + warm_s
        self.record["setup"] = {"build_s": build_s, "boot_s": boots, "warm_s": warm_s}
        return server

    # -- phases ------------------------------------------------------------

    def new_server_inputs(self) -> None:
        """Fresh request inputs for the next measured server."""
        self.specs = SpecMaker(self.n_users, len(self.gazetteer.venue_vocabulary),
                               rng_for(self.seed, 12))
        self.users = [int(u) for u in rng_for(self.seed, 13).choice(self.n_users, 256, replace=False)]

    def _read_mix(self, stream: int):
        """The read mix of one lane or client (``stream`` picks its RNG)."""
        rng = rng_for(self.seed, 100 + stream)
        if self.name == "serve-read":
            return ServeReadMix(rng, self.gazetteer, self.specs, self.users[:32])
        return IngestReadMix(rng, self.gazetteer, self.users)

    def _delta_stream(self) -> DeltaStream:
        return DeltaStream(self.n_users, len(self.gazetteer.venue_vocabulary),
                           len(self.gazetteer), rng_for(self.seed, 41))

    def open_loop(self, server, seconds: float, deltas: list):
        """The seeded open-loop phase; appends sent deltas to ``deltas``."""
        rng = rng_for(self.seed, 42)
        times = poisson_times(rng, self.cfg["rate"], seconds)
        self.new_server_inputs()
        reads = self._read_mix(0)
        if self.name == "serve-read":
            ops = []
            for t in times:
                op = reads.next()
                op.due = t
                ops.append(op)
            lanes = [label_ops(ops, "o")]
            conns = [self.conns]
        else:
            stream = self._delta_stream()
            writes, read_ops = [], []
            for t in times:
                if rng.random() < self.cfg["write_share"]:
                    payload = stream.next()
                    deltas.append(payload)
                    op = write_op(payload)
                    op.due = t
                    writes.append(op)
                else:
                    op = reads.next()
                    op.due = t
                    read_ops.append(op)
            self.stream = stream
            if self.conns >= 2:
                lanes = [label_ops(writes, "w"), label_ops(read_ops, "r")]
                conns = [1, self.conns - 1]
            else:  # one connection: one lane keeps writes in schedule order
                merged = sorted(writes + read_ops, key=lambda op: op.due)
                lanes, conns = [label_ops(merged, "o")], [1]
        results = run_open_loop(server.port, lanes, conns)
        self.results += results
        return results

    def closed_loop(self, server, seconds: float, deltas: list):
        """``nproc`` back-to-back clients; returns (results, seconds)."""
        def labelled(make, prefix):
            i = 0
            while True:
                op = make()
                op.rid = f"{prefix}{i}"
                i += 1
                yield op

        if self.name == "serve-read":
            streams = [labelled(self._read_mix(1 + k).next, f"c{k}-") for k in range(self.conns)]
        else:
            def next_write():
                payload = self.stream.next()
                deltas.append(payload)
                return write_op(payload)

            streams = [labelled(next_write, "cw")]
            streams += [labelled(self._read_mix(1 + k).next, f"c{k}-") for k in range(1, self.conns)]
        results, elapsed = run_closed_loop(server.port, streams, seconds)
        self.results += results
        return results, elapsed

    def write_phase(self, server, deltas: list):
        """``serve-read`` only: sequential /ingest requests after the reads."""
        stream = self._delta_stream()
        ops = []
        for i in range(self.cfg["writes_after"]):
            payload = stream.next()
            deltas.append(payload)
            op = write_op(payload)
            op.rid = f"x{i}"
            ops.append(op)
        results, _ = run_closed_loop(server.port, [iter(ops)], 600.0)
        self.results += results
        return results

    # -- correctness -------------------------------------------------------

    def check_bodies(self, results) -> None:
        """Sampled read bodies are byte-equal to in-process answers."""
        from repro.query.service import QueryService, split_query_path
        from repro.serving.server import predict_batch_payload, predict_home_payload

        predictor = self.fresh_predictor()
        queries = QueryService(predictor)
        sampled = 0
        mismatched = []
        for r in results:
            if not (r.op.check and r.ok):
                continue
            if r.op.path == "/predict-home":
                expected = predict_home_payload(predictor, json.loads(r.op.body))
            elif r.op.path == "/predict-batch":
                expected = predict_batch_payload(predictor, json.loads(r.op.body))
            else:
                expected = queries.answer(*split_query_path(r.op.path))
            sampled += 1
            if json.dumps(expected).encode("utf-8") != r.body:
                mismatched.append(r.op.path)
        self.record.setdefault("byte_checks", []).append(
            {"sampled": sampled, "mismatched": len(mismatched),
             "first_mismatches": mismatched[:3]}
        )
        self.checks["sampled responses byte-equal to in-process"] = (
            self.checks.get("sampled responses byte-equal to in-process", True)
            and sampled > 0 and not mismatched
        )

    def fresh_predictor(self):
        """An in-process predictor over the same artifact."""
        from repro.serving.artifacts import load_result
        from repro.serving.foldin import FoldInPredictor

        return FoldInPredictor(load_result(self.artifact), artifact_id=self.artifact_id)

    def check_world(self, server, deltas: list, health: dict) -> None:
        """The served world equals an in-process replay of the deltas;
        for a journaled server, recovering its journal lands there too."""
        from repro.data.delta import WorldDelta, apply_delta

        world = base = self.fresh_predictor().world
        for payload in deltas:
            world = apply_delta(world, WorldDelta.from_payload(payload, gazetteer=world.gazetteer))
        ok = (health["world"]["hash"] == world.content_hash
              and health["world"]["generation"] == len(deltas))
        self.checks["served world hash equals in-process replay"] = (
            self.checks.get("served world hash equals in-process replay", True) and ok
        )
        if self.name == "ingest-mix":
            from repro.data.journal import open_journal

            recovered, journal, _ = open_journal(server.state / "journal", base, create=False)
            journal.close()
            self.checks["journal recovery lands on the same hash"] = (
                self.checks.get("journal recovery lands on the same hash", True)
                and recovered.content_hash == world.content_hash
            )
        self.record.setdefault("final_generations", []).append(len(deltas))

    # -- the run -----------------------------------------------------------

    def gated(self, opened, closed):
        """The results whose latencies the end-to-end metrics use."""
        return closed if self.cfg["gated_reads"] == "closed" else opened

    def measured_phases(self, server, open_s, closed_s):
        """Open loop, closed loop (and serve-read's writes) on one server."""
        deltas: list = []
        opened = self.open_loop(server, open_s, deltas)
        closed, closed_s = self.closed_loop(server, closed_s, deltas)
        writes = self.write_phase(server, deltas) if self.name == "serve-read" else []
        return deltas, opened, closed, closed_s, writes

    def finish_server(self, server, deltas, results):
        """Gate, scrape and stop one measured server."""
        health = server.get_json("/healthz")
        metrics_text = server.get_text("/metrics")
        rss = rss_peak_mb(server.pids())
        server.stop()
        if self.name == "serve-read":
            self.check_bodies(results)
        self.check_world(server, deltas, health)
        return health, metrics_text, rss


#: Per-layer metrics of the durable write path, which ``serve-read``'s
#: traced run takes from :func:`_ingest_probe`.
INGEST_LAYERS = (
    "data.journal_append_ms_p50", "data.journal_fsyncs",
    "serving.store_publish_ms_p50", "serving.store_publish_bytes",
    "serving.worker_sync_ms_p50", "serving.coalesced_batch_mean",
    "query.index_refresh_ms_p50", "query.full_fallbacks",
    "ingest.unattributed_share",
)


def _ingest_probe(state: Run) -> dict:
    """The durable write path, traced, on ``serve-read``'s artifact.

    ``ingest-mix`` is not a gated workload (its fsync-bound latencies
    follow the host's disk; see README), so ``serve-read``'s traced run
    measures those layers instead: a ``--workers 1 --journal`` server
    on the same artifact, half of ``ingest-mix``'s open loop, and its
    correctness gates.
    """
    probe = Run("ingest-mix", INGEST_MIX, state.seed, state.seconds, False, state.workdir)
    for attr in ("artifact", "artifact_id", "gazetteer", "n_users"):
        setattr(probe, attr, getattr(state, attr))
    server, _ = probe.boot("probe", traced=True)
    try:
        probe.warm(server)
        deltas: list = []
        t_start = clock()
        results = probe.open_loop(server, state.seconds * INGEST_MIX["open_share"] / 2, deltas)
        t_end = clock()
        _, metrics_text, _ = probe.finish_server(server, deltas, results)
    finally:
        server.stop()
    spans = [s for s in load_spans(server.state / "spans") if t_start <= s["start"] <= t_end]
    values = layer_span_metrics(spans)
    values.update(request_ledger(spans, results))
    values.update(scrape_metrics(metrics_text))
    state.results += results
    state.checks.update({f"ingest probe: {k}": ok for k, ok in probe.checks.items()})
    state.record["ingest_probe_self_time_s"] = self_time_by_name(spans)
    return {key: values[key] for key in INGEST_LAYERS}


def _latencies_ms(results, kind) -> list[float]:
    return [r.latency * 1e3 for r in results if r.op.kind == kind and r.ok]


def run(name: str, seed: int, seconds: float, trace: bool, workdir) -> dict:
    """One run of a serving workload; returns the run summary."""
    cfg = SERVE_READ if name == "serve-read" else INGEST_MIX
    state = Run(name, cfg, seed, seconds, trace, workdir)
    open_s = seconds * cfg["open_share"]
    closed_s = seconds - open_s
    server = state.setup()
    try:
        if not trace:
            deltas, opened, closed, closed_s, writes = state.measured_phases(server, open_s, closed_s)
            health, _, rss = state.finish_server(server, deltas, state.results)
            metrics = _e2e_metrics(state, opened, closed, closed_s, writes, rss)
        else:
            # The untraced reference runs the phases whose latencies
            # trace.overhead_share compares.
            untraced_deltas: list = []
            untraced = state.open_loop(server, open_s / 2, untraced_deltas)
            untraced_closed = []
            if cfg["gated_reads"] == "closed":
                untraced_closed, _ = state.closed_loop(server, closed_s / 2, untraced_deltas)
            state.finish_server(server, untraced_deltas, untraced + untraced_closed)
            untraced = state.gated(untraced, untraced_closed)
            server, _ = state.boot("traced", traced=True)
            state.warm(server)
            t_start = clock()
            first = len(state.results)
            deltas, opened, closed, _, writes = state.measured_phases(server, open_s / 2, closed_s)
            t_end = clock()
            traced_results = state.results[first:]
            _, metrics_text, _ = state.finish_server(server, deltas, traced_results)
            spans = [s for s in load_spans(server.state / "spans")
                     if t_start <= s["start"] <= t_end]
            metrics = _per_layer(state, spans, untraced, opened, state.gated(opened, closed),
                                 traced_results, metrics_text)
            metrics.update(fit_ledger(span_dicts(state.recorder.spans), state.fit_s))
            if name == "serve-read":
                metrics.update(_ingest_probe(state))
    finally:
        server.stop()
    failures = [r for r in state.results if not r.ok]
    failed = len(failures)
    state.record["first_failures"] = [
        {"rid": r.op.rid, "path": r.op.path, "status": r.status, "body": (r.body or b"")[:200].decode("utf-8", "replace")}
        for r in failures[:5]
    ]
    lags = [(r.woke - r.due) * 1e3 for r in state.results if r.op.rid[:1] in "owr"]
    state.record["client_lag_ms"] = {"p50": median(lags), "p90": pct(lags, 90), "p99": pct(lags, 99)}
    state.record["generator_valid"] = pct(lags, 90) <= LAG_LIMIT_MS
    state.checks["load generator kept its schedule"] = state.record["generator_valid"]
    return {"metrics": metrics, "checks": state.checks,
            "operations": len(state.results), "failed_operations": failed,
            "record": state.record}


def _e2e_metrics(state, opened, closed, closed_s, writes, rss) -> dict:
    reads = _latencies_ms(state.gated(opened, closed), "read")
    open_reads = _latencies_ms(opened, "read")
    write_lat = _latencies_ms(writes or opened, "write")
    capacity = sum(1 for r in closed if r.ok) / closed_s
    # A percentile is reported only where at least ten samples lie
    # beyond it: p90 is gated; p99 is recorded with its support.
    state.record["samples"] = {
        "reads": len(reads), "writes": len(write_lat), "closed_loop": len(closed),
        "read_p99_ms": pct(reads, 99), "write_p99_ms": pct(write_lat, 99),
        "read_p99_supported": len(reads) >= 1000,
        "write_p99_supported": len(write_lat) >= 1000,
        "read_p90_within_limit": pct(reads, 90) <= READ_P90_LIMIT_MS,
        "read_phase": state.cfg["gated_reads"],
        "open_loop_reads": {"n": len(open_reads), "p50_ms": median(open_reads),
                            "p90_ms": pct(open_reads, 90), "p99_ms": pct(open_reads, 99)},
    }
    return {
        "setup_s": state.setup_s,
        "rss_peak_mb": rss,
        "fit_s": state.fit_s,
        "acc_at_100": state.acc,
        "read_p50_ms": median(reads),
        "read_p90_ms": pct(reads, 90),
        "write_p50_ms": median(write_lat),
        "write_p90_ms": pct(write_lat, 90),
        "capacity_rps": capacity,
    }


def _per_layer(state, spans, untraced, traced_open, traced_gated, traced_results, metrics_text) -> dict:
    values = layer_span_metrics(spans)
    joined = request_ledger(spans, traced_results)
    state.record["joined_requests"] = joined.pop("joined_requests")
    values.update(joined)
    values.update(scrape_metrics(metrics_text))
    values.update(client_metrics(traced_open))
    kind = "read" if state.name == "serve-read" else "write"
    before = median(_latencies_ms(untraced, kind))
    after = median(_latencies_ms(traced_gated, kind))
    values["trace.overhead_share"] = (after - before) / before if before else 0.0
    state.record["self_time_s"] = self_time_by_name(spans)
    state.record["trace_overhead"] = {"metric": f"{kind}_p50_ms", "untraced": before, "traced": after}
    return values
