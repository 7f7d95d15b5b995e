"""``fit-default``: generate, fit with the library defaults, save, load, score.

Runs in this process through the library's public functions.  The fit
dominates; after it, an in-process phase reads (fold-in of held-out
users and of fresh evidence) and writes (``apply_delta``) against the
loaded artifact, so that every end-to-end metric has a value on this
workload too.
"""

from __future__ import annotations

import time

from common import clock, median, pct, self_rss_peak_mb
from inputs import FIT_USERS, DeltaStream, SpecMaker, make_world, rng_for
from ledger import fit_ledger, layer_span_metrics, self_time_by_name
from spans import (
    Recorder, install_delta_wrapper, install_fit_wrappers, install_predict_wrappers,
    span_dicts,
)

#: The in-process phase after the fit: ROUNDS rounds of reads then
#: writes, paced evenly over ``--seconds`` so that a short slow spell of
#: the host touches few samples.
ROUNDS = 10
ROUND_READS = 300
ROUND_WRITES = 50
#: Setup repetitions; setup_s is their median.
SETUP_REPEATS = 3


def _fit_and_save(split, path):
    """Fit with the default MLPParams and save; returns (result, id, secs)."""
    from repro import MLPModel, MLPParams
    from repro.serving import artifacts

    t0 = clock()
    result = MLPModel(MLPParams()).fit(split.train_dataset)
    artifact_id = artifacts.save_result(result, path)
    return result, artifact_id, clock() - t0


def _load_and_score(dataset, split, result, artifact_id, path, checks):
    """Load the artifact, gate it, and score ACC@100 on held-out users."""
    from repro.evaluation.metrics import accuracy_at
    from repro.serving import artifacts

    loaded = artifacts.load_result(path)
    meta = artifacts.artifact_metadata(path)
    checks["artifact id survives save/load"] = meta["artifact_id"] == artifact_id
    train = split.train_dataset.observed_locations
    full = dataset.observed_locations
    checks["held-out labels hidden from the fit"] = all(
        u not in train for u in split.test_user_ids
    ) and [full[u] for u in split.test_user_ids] == list(split.test_truth)
    predicted = [loaded.predicted_home(u) for u in split.test_user_ids]
    checks["loaded homes equal fitted homes"] = predicted == [
        result.predicted_home(u) for u in split.test_user_ids
    ]
    acc = accuracy_at(split.train_dataset.gazetteer, predicted, split.test_truth, 100)
    return loaded, acc


def _reads_and_writes(split, loaded, artifact_id, seed, seconds, checks):
    """The in-process phase: fold-in reads and delta writes, in rounds."""
    from repro.data import delta as delta_mod
    from repro.data.columnar import ColumnarWorld
    from repro.serving.foldin import FoldInPredictor
    from repro.serving.server import predict_home_payload

    predictor = FoldInPredictor(loaded, artifact_id=artifact_id)
    world = predictor.world
    specs = SpecMaker(world.n_users, world.n_venues, rng_for(seed, 31))
    bodies = [{"users": [{"user_id": u}]} for u in split.test_user_ids]
    while len(bodies) < ROUNDS * ROUND_READS:
        bodies.append({"users": [specs.unique()]})
    stream = DeltaStream(world.n_users, world.n_venues, world.n_locations, rng_for(seed, 32))
    reads, writes = [], []
    start = clock()
    for r in range(ROUNDS):
        time.sleep(max(0.0, start + r * seconds / ROUNDS - clock()))
        for body in bodies[r * ROUND_READS:(r + 1) * ROUND_READS]:
            t0 = clock()
            predict_home_payload(predictor, body)
            reads.append(clock() - t0)
        for _ in range(ROUND_WRITES):
            delta = delta_mod.WorldDelta.from_payload(stream.next(), gazetteer=world.gazetteer)
            t0 = clock()
            world = delta_mod.apply_delta(world, delta)
            writes.append(clock() - t0)
    rebuilt = ColumnarWorld.from_edge_arrays(
        world.gazetteer, world.observed_location, world.edge_src,
        world.edge_dst, world.tweet_user, world.tweet_venue,
    )
    checks["delta-applied world equals a recompile"] = (
        rebuilt.rehash() == world.rehash() and world.generation == len(writes)
    )
    return {
        "read_p50_ms": median(reads) * 1e3,
        "read_p90_ms": pct(reads, 90) * 1e3,
        "capacity_rps": len(reads) / sum(reads),
        "write_p50_ms": median(writes) * 1e3,
        "write_p90_ms": pct(writes, 90) * 1e3,
        "read_p99_ms": pct(reads, 99) * 1e3,
        "write_p99_ms": pct(writes, 99) * 1e3,
    }, len(reads) + len(writes)


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    """One run; returns the run summary consumed by ``run.py``.

    The fit is measured however long it takes; ``seconds`` paces the
    in-process read/write phase after it.
    """
    setups = []
    worlds = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        worlds.append(make_world(FIT_USERS, seed))
        setups.append(clock() - t0)
    dataset, split = worlds[-1]
    checks: dict[str, bool] = {}
    path = workdir / "fit.mlp.npz"
    record = {
        "world": {
            "users": dataset.n_users,
            "following": len(dataset.following),
            "tweeting": len(dataset.tweeting),
            "held_out": len(split.test_user_ids),
        },
        "setup_samples_s": [round(s, 4) for s in setups],
    }

    result, artifact_id, fit_s = _fit_and_save(split, path)
    loaded, acc = _load_and_score(dataset, split, result, artifact_id, path, checks)
    if not trace:
        phase, operations = _reads_and_writes(split, loaded, artifact_id, seed, seconds, checks)
        record["samples"] = {
            "reads": ROUNDS * ROUND_READS, "writes": ROUNDS * ROUND_WRITES,
            "read_p99_ms": phase.pop("read_p99_ms"),
            "write_p99_ms": phase.pop("write_p99_ms"),
        }
        metrics = {
            "setup_s": median(setups),
            "rss_peak_mb": self_rss_peak_mb(),
            "fit_s": fit_s,
            "acc_at_100": acc,
            **phase,
        }
        return {"metrics": metrics, "checks": checks, "operations": operations + 1,
                "failed_operations": 0, "record": record}

    # Traced: the same fit again on a second copy of the world (its own
    # compile), with spans around each layer; then the traced phase.
    recorder = Recorder()
    install_fit_wrappers(recorder)
    install_predict_wrappers(recorder)
    install_delta_wrapper(recorder)
    traced_dataset, traced_split = worlds[0]
    traced_path = workdir / "fit-traced.mlp.npz"
    traced_result, traced_id, traced_fit_s = _fit_and_save(traced_split, traced_path)
    traced_loaded, _ = _load_and_score(traced_dataset, traced_split, traced_result, traced_id, traced_path, checks)
    fit_spans = span_dicts(recorder.spans)
    recorder.reset()
    _, operations = _reads_and_writes(traced_split, traced_loaded, traced_id, seed, seconds, checks)
    values = fit_ledger(fit_spans, traced_fit_s)
    values.update(layer_span_metrics(span_dicts(recorder.spans)))
    values["trace.overhead_share"] = (traced_fit_s - fit_s) / fit_s
    record["fit_s"] = {"untraced": fit_s, "traced": traced_fit_s}
    record["self_time_s"] = self_time_by_name(fit_spans)
    return {"metrics": values, "checks": checks, "operations": operations + 2,
            "failed_operations": 0, "record": record}

