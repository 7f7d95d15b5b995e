"""The per-layer ledger: turn spans and client timings into layer metrics.

A span's *self time* is its duration minus the time its child spans on
the same thread cover.  Server-side spans are joined to client requests
by the ``X-Request-Id`` the client sent: directly when a span ran on the
thread serving the request, otherwise (executor threads, worker
processes) by time containment in a request of the matching route
family.  All processes share the monotonic clock.
"""

from __future__ import annotations

from collections import defaultdict

from common import median, pct, scrape_metric

#: Every per-layer metric, in BENCHMARK.json order; a layer idle on a
#: workload reports 0.
PER_LAYER = (
    ("data.compile_s", "s"),
    ("core.priors_s", "s"),
    ("core.calibration_s", "s"),
    ("engine.setup_s", "s"),
    ("engine.sweep_s", "s"),
    ("engine.sweep_ms_p50", "ms"),
    ("engine.sweeps", "count"),
    ("core.fit_self_s", "s"),
    ("serving.artifact_save_s", "s"),
    ("serving.artifact_bytes", "bytes"),
    ("serving.artifact_load_s", "s"),
    ("serving.predict_ms_p50", "ms"),
    ("serving.predict_calls", "count"),
    ("serving.batch_engine_share", "ratio"),
    ("serving.cache_hit_ratio", "ratio"),
    ("query.answer_ms_p50", "ms"),
    ("query.index_refresh_ms_p50", "ms"),
    ("query.full_fallbacks", "count"),
    ("http.overhead_ms_p50", "ms"),
    ("serving.coalesced_batch_mean", "count"),
    ("data.journal_append_ms_p50", "ms"),
    ("data.journal_fsyncs", "count"),
    ("data.apply_delta_ms_p50", "ms"),
    ("serving.store_publish_ms_p50", "ms"),
    ("serving.store_publish_bytes", "bytes"),
    ("serving.worker_sync_ms_p50", "ms"),
    ("client.lag_ms_p99", "ms"),
    ("client.conn_wait_ms_p50", "ms"),
    ("fit.unattributed_share", "ratio"),
    ("serve.unattributed_share", "ratio"),
    ("ingest.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)

#: Spans that are program layers; the rest of a request's server time
#: is HTTP/front-end overhead.
LAYER_SPANS = {
    "serving.predict", "serving.batch_engine", "query.answer", "query.index",
    "data.journal_append", "data.apply_delta", "serving.store_publish",
    "serving.worker_sync",
}

#: Which request route family a root span of an executor thread or
#: worker process can belong to.
_FAMILY = {
    "query.answer": "query", "query.index": "query",
    "serving.predict": "predict", "serving.batch_engine": "predict",
    "serving.worker_batch": "predict", "serving.worker_sync": "predict",
    "serving.worker_call": "predict",
    "data.journal_append": "ingest", "data.apply_delta": "ingest",
    "serving.store_publish": "ingest",
}


def with_units(values: dict) -> dict:
    """``{name: {"value": v, "unit": u}}`` for every per-layer metric;
    a layer the run left idle reads 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }


def self_times(spans) -> dict:
    """Span id -> self time (duration minus direct children)."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in spans}


def self_time_by_name(spans) -> dict:
    """Total self seconds per span name."""
    selfs = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += selfs[s["id"]]
    return {k: round(v, 6) for k, v in sorted(out.items())}


def fit_ledger(spans, fit_seconds: float) -> dict:
    """Per-layer metrics of one traced fit + save + load."""
    selfs = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def total_self(name):
        return sum(selfs[s["id"]] for s in by[name])

    sweeps = [s["end"] - s["start"] for s in by["engine.sweep"]]
    values = {
        "data.compile_s": total_self("data.compile"),
        "core.priors_s": total_self("core.priors"),
        "core.calibration_s": total_self("core.calibration"),
        "engine.setup_s": total_self("engine.setup"),
        "engine.sweep_s": sum(sweeps),
        "engine.sweep_ms_p50": median(sweeps) * 1e3,
        "engine.sweeps": len(sweeps),
        "core.fit_self_s": total_self("core.fit"),
        "serving.artifact_save_s": total_self("serving.artifact_save"),
        "serving.artifact_bytes": sum(s["meta"] or 0 for s in by["serving.artifact_save"]),
        "serving.artifact_load_s": median(
            [selfs[s["id"]] for s in by["serving.artifact_load"]]
        ),
    }
    attributed = sum(
        values[k] for k in (
            "data.compile_s", "core.priors_s", "core.calibration_s",
            "engine.setup_s", "engine.sweep_s", "core.fit_self_s",
            "serving.artifact_save_s",
        )
    )
    values["fit.unattributed_share"] = max(0.0, fit_seconds - attributed) / fit_seconds
    return values


def layer_span_metrics(spans) -> dict:
    """Layer metrics that need no request join (in-process or server)."""
    selfs = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def dur_ms(name, keep=lambda s: True):
        return [(s["end"] - s["start"]) * 1e3 for s in by[name] if keep(s)]

    predict_s = sum(s["end"] - s["start"] for s in by["serving.predict"])
    batch_s = sum(s["end"] - s["start"] for s in by["serving.batch_engine"])
    specs = sum((s["meta"] or [0, 0])[0] for s in by["serving.predict"])
    hits = sum((s["meta"] or [0, 0])[1] for s in by["serving.predict"])
    publish = by["serving.store_publish"]
    return {
        "serving.predict_ms_p50": median(dur_ms("serving.predict")),
        "serving.predict_calls": len(by["serving.predict"]),
        "serving.batch_engine_share": batch_s / predict_s if predict_s else 0.0,
        "serving.cache_hit_ratio": hits / specs if specs else 0.0,
        "query.answer_ms_p50": median([selfs[s["id"]] * 1e3 for s in by["query.answer"]]),
        "query.index_refresh_ms_p50": median(dur_ms("query.index", lambda s: s["meta"])),
        "data.journal_append_ms_p50": median(dur_ms("data.journal_append")),
        "data.apply_delta_ms_p50": median(dur_ms("data.apply_delta")),
        "serving.store_publish_ms_p50": median(dur_ms("serving.store_publish")),
        "serving.store_publish_bytes": median([s["meta"] or 0 for s in publish]),
        "serving.worker_sync_ms_p50": median(dur_ms("serving.worker_sync", lambda s: s["meta"])),
    }


def _union_length(intervals, lo, hi) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _family(route: str) -> str:
    if route.startswith("/query/"):
        return "query"
    if route.startswith("/predict"):
        return "predict"
    return "ingest" if route == "/ingest" else "other"


def request_ledger(spans, results) -> dict:
    """Join server spans to client requests; HTTP overhead and shares."""
    by_rid = {}
    for s in spans:
        if s["name"] == "http.server" and s["rid"]:
            by_rid[s["rid"]] = s
    requests = [r for r in results if r.op.rid in by_rid]
    # Root of every span, to classify spans of executor threads/workers.
    index = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] is not None and s["parent"] in index:
            s = index[s["parent"]]
        return s

    layer_iv = defaultdict(list)  # rid -> [(start, end)]
    by_family = defaultdict(list)  # family -> [(start, end, rid)] of requests
    for r in requests:
        server = by_rid[r.op.rid]
        by_family[_family(r.op.path)].append((server["start"], server["end"], r.op.rid))
    for s in spans:
        if s["name"] not in LAYER_SPANS:
            continue
        top = root(s)
        if top["rid"] in by_rid:
            layer_iv[top["rid"]].append((s["start"], s["end"]))
            continue
        family = _FAMILY.get(top["name"])
        for start, end, rid in by_family.get(family, ()):
            if start <= top["start"] and top["end"] <= end:
                layer_iv[rid].append((s["start"], s["end"]))

    overhead_ms, unattributed = [], defaultdict(lambda: [0.0, 0.0])
    for r in requests:
        server = by_rid[r.op.rid]
        layer = _union_length(layer_iv[r.op.rid], server["start"], server["end"])
        overhead_ms.append(((r.done - r.sent) - layer) * 1e3)
        gap = max(0.0, (r.done - r.sent) - (server["end"] - server["start"]))
        acc = unattributed[r.op.kind]
        acc[0] += gap
        acc[1] += r.done - r.due
    for r in results:
        if r.op.rid not in by_rid:  # no server span at all: all unattributed
            acc = unattributed[r.op.kind]
            acc[0] += r.done - r.sent
            acc[1] += r.done - r.due

    def share(kind):
        gap, total = unattributed[kind]
        return gap / total if total else 0.0

    return {
        "http.overhead_ms_p50": median(overhead_ms),
        "serve.unattributed_share": share("read"),
        "ingest.unattributed_share": share("write"),
        "joined_requests": len(requests),
    }


def client_metrics(results) -> dict:
    """Generator validity: dispatcher lag and connection wait."""
    return {
        "client.lag_ms_p99": pct([(r.woke - r.due) * 1e3 for r in results], 99),
        "client.conn_wait_ms_p50": median([(r.sent - r.woke) * 1e3 for r in results]),
    }


def scrape_metrics(text: str) -> dict:
    """Layer counters the server exports on ``/metrics``."""
    count = scrape_metric(text, "repro_serve_coalesced_batch_size_count")
    total = scrape_metric(text, "repro_serve_coalesced_batch_size_sum")
    return {
        "query.full_fallbacks": scrape_metric(
            text, "repro_query_index_refreshes_total", {"kind": "full_fallback"}
        ),
        "serving.coalesced_batch_mean": total / count if count else 0.0,
        "data.journal_fsyncs": scrape_metric(text, "repro_journal_fsyncs_total"),
    }
