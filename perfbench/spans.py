"""Spans for traced runs, recorded around the program's public entry points.

Nothing inside the program is edited.  A traced run replaces selected
names -- in the module or class the caller looks them up in -- with
wrappers that record a span per call: name, start, end, the enclosing
span on the same thread (its parent) and the request id of the HTTP
request being served, when one is known.  Spans stay in memory and are
written out once, when the process ends (Dapper-style attribution,
Sigelman et al. 2010).

Forked worker processes inherit the wrappers; each writes its own file.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
from pathlib import Path

from common import clock


class Recorder:
    """In-memory span store of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Request id of the coroutine chain serving one request (the
        #: asyncio front end; thread-local stacks cannot follow tasks).
        self.rid = contextvars.ContextVar("perfbench_rid", default=None)

    def reset(self) -> None:
        """Drop inherited spans (a forked child starts empty)."""
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid=None) -> list:
        """Open a span on this thread's stack."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            rid = parent[5] if parent is not None else self.rid.get()
        span = [next(self._ids), name, clock(), 0.0,
                parent[0] if parent is not None else 0, rid, None]
        stack.append(span)
        return span

    def end(self, span: list, meta=None) -> None:
        """Close the innermost span."""
        span[3] = clock()
        span[6] = meta
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def add(self, name: str, start: float, end: float, meta=None) -> None:
        """Record a finished span under the current one (observer hooks)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append([
            next(self._ids), name, start, end,
            parent[0] if parent is not None else 0,
            parent[5] if parent is not None else self.rid.get(),
            meta,
        ])

    def wrap(self, owner, attr: str, name: str, rid_of=None, meta_of=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``rid_of(args, kwargs)`` names the request a root span serves;
        ``meta_of(args, kwargs, result)`` attaches a small JSON value.
        """
        # On a class, take the plain function so the wrapper binds
        # like the method it replaces.
        target = (
            getattr(owner, attr) if inspect.ismodule(owner)
            else inspect.getattr_static(owner, attr)
        )
        recorder = self

        if inspect.iscoroutinefunction(target):
            @functools.wraps(target)
            async def wrapper(*args, **kwargs):
                rid = rid_of(args, kwargs) if rid_of else None
                token = recorder.rid.set(rid)
                start = clock()
                result = None
                try:
                    result = await target(*args, **kwargs)
                    return result
                finally:
                    recorder.rid.reset(token)
                    meta = meta_of(args, kwargs, result) if meta_of else None
                    recorder.spans.append(
                        [next(recorder._ids), name, start, clock(), 0, rid, meta]
                    )
        else:
            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                span = recorder.begin(
                    name, rid_of(args, kwargs) if rid_of else None
                )
                result = None
                try:
                    result = target(*args, **kwargs)
                    return result
                finally:
                    meta = meta_of(args, kwargs, result) if meta_of else None
                    recorder.end(span, meta)

        setattr(owner, attr, wrapper)
        return wrapper

    def dump(self, directory) -> Path:
        """Write this process's spans to ``directory/spans-<pid>.json``."""
        path = Path(directory) / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": os.getpid(), "spans": self.spans}))
        tmp.replace(path)
        return path


def span_dicts(raw, pid: int = 0) -> list[dict]:
    """Recorded span lists as dicts (the form the ledger reads)."""
    return [
        {"id": (pid, sid), "name": name, "start": start, "end": end,
         "parent": (pid, parent) if parent else None, "rid": rid,
         "meta": meta, "pid": pid}
        for sid, name, start, end, parent, rid, meta in raw
    ]


def load_spans(directory) -> list[dict]:
    """Every span written under ``directory``, one dict per span."""
    out = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        data = json.loads(path.read_text())
        out += span_dicts(data["spans"], data["pid"])
    return out


# -- the entry points a traced run wraps ------------------------------------


def install_fit_wrappers(recorder: Recorder) -> None:
    """Wrap the fit pipeline's layers where :class:`MLPModel` calls them."""
    from repro.core import gibbs_em, model
    from repro.engine import factory
    from repro.obs.hooks import set_sweep_observer
    from repro.serving import artifacts

    recorder.wrap(model.MLPModel, "fit", "core.fit")
    recorder.wrap(model, "compile_world", "data.compile")
    recorder.wrap(model, "build_user_priors", "core.priors")
    recorder.wrap(gibbs_em, "build_user_priors", "core.priors")
    recorder.wrap(model, "run_inference", "engine.run")
    recorder.wrap(gibbs_em, "fit_initial_power_law", "core.calibration")
    recorder.wrap(gibbs_em, "refit_power_law", "core.calibration")
    recorder.wrap(
        artifacts, "save_result", "serving.artifact_save",
        meta_of=lambda a, k, r: _file_size(a[1] if len(a) > 1 else k["path"]),
    )
    recorder.wrap(artifacts, "load_result", "serving.artifact_load")

    # Sampler construction and initialization (arena packing, initial
    # assignments) are the engine's per-fit set-up.
    make_sampler = factory.make_sampler

    def traced_make_sampler(*args, **kwargs):
        span = recorder.begin("engine.setup")
        try:
            sampler = make_sampler(*args, **kwargs)
        finally:
            recorder.end(span)
        initialize = sampler.initialize

        def traced_initialize():
            span = recorder.begin("engine.setup")
            try:
                return initialize()
            finally:
                recorder.end(span)

        sampler.initialize = traced_initialize
        return sampler

    factory.make_sampler = traced_make_sampler

    def observe(engine, iteration, seconds):
        end = clock()
        recorder.add("engine.sweep", end - seconds, end)

    set_sweep_observer(observe)


def install_serving_wrappers(recorder: Recorder) -> None:
    """Wrap the serve and ingest pipelines' layers, server side.

    Root spans come from the two HTTP transports (they carry the
    client's ``X-Request-Id``); the layers below them are the public
    entry points named in the benchmark's README.
    """
    from repro.data import journal
    from repro.query import service
    from repro.serving import frontend, server, store, workers

    recorder.wrap(
        server.ServingHandler, "_dispatch", "http.server",
        rid_of=lambda a, k: a[0].headers.get("X-Request-Id"),
    )
    recorder.wrap(
        frontend.AsyncFrontend, "_serve_request", "http.server",
        rid_of=lambda a, k: a[4].get("x-request-id"),
    )
    install_predict_wrappers(recorder)
    recorder.wrap(service.QueryService, "answer", "query.answer")
    last_index: dict[int, object] = {}

    def index_meta(args, kwargs, result):
        previous = last_index.get(id(args[0]))
        last_index[id(args[0])] = result
        return result is not previous

    recorder.wrap(
        service.QueryService, "current_index", "query.index",
        meta_of=index_meta,
    )
    recorder.wrap(journal.DeltaJournal, "append", "data.journal_append")
    install_delta_wrapper(recorder)
    recorder.wrap(
        store.WorldStore, "publish", "serving.store_publish",
        meta_of=lambda a, k, r: _dir_size(
            a[0].directory / f"gen-{int(a[1].generation):012d}"
        ),
    )
    recorder.wrap(
        workers, "sync_generation", "serving.worker_sync",
        meta_of=lambda a, k, r: r is not a[2],
    )
    recorder.wrap(workers, "serve_predict_requests", "serving.worker_batch")
    recorder.wrap(workers.WorkerHandle, "call", "serving.worker_call")


def install_predict_wrappers(recorder: Recorder) -> None:
    """Wrap the fold-in entry point and the batch engine it delegates to.

    A prediction span's meta is ``[specs, answered from cache]``.
    """
    from repro.serving import batch, foldin

    recorder.wrap(
        foldin.FoldInPredictor, "predict_batch", "serving.predict",
        meta_of=lambda a, k, r: [
            len(a[1]), sum(1 for p in (r or ()) if p.from_cache)
        ],
    )
    recorder.wrap(
        batch.BatchFoldInEngine, "solve", "serving.batch_engine",
        meta_of=lambda a, k, r: len(a[1]),
    )


def install_delta_wrapper(recorder: Recorder) -> None:
    """Wrap the in-memory delta apply."""
    from repro.data import delta

    recorder.wrap(delta, "apply_delta", "data.apply_delta")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _dir_size(path) -> int:
    try:
        return sum(p.stat().st_size for p in Path(path).iterdir())
    except OSError:
        return 0
