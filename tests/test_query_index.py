"""Prediction-index tests: projection, incremental refresh, fallbacks.

The load-bearing contract pinned here is **refresh == rebuild, bit for
bit**: after any sequence of ingest deltas, ``PredictionIndex.refreshed``
must produce arrays identical to a from-scratch
``PredictionIndex.build`` at the same generation (the fold-in engine is
batch-composition-invariant, so this is achievable and therefore
required).  Also pinned: the loud ``StaleWindowError`` full-rebuild
fallback in :class:`repro.query.service.QueryService`, and the strict
query-parameter parsing both transports rely on for their 400s.
"""

import json

import numpy as np
import pytest

from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.delta import StaleWindowError, WorldDelta
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.query import PredictionIndex, QueryService
from repro.serving.batch import score_population
from repro.serving.foldin import FoldInPredictor


@pytest.fixture(scope="module")
def dataset():
    return generate_world(SyntheticWorldConfig(n_users=100, seed=11))


@pytest.fixture(scope="module")
def result(dataset):
    params = MLPParams(n_iterations=10, burn_in=4, seed=0, engine="vectorized")
    return MLPModel(params).fit(dataset)


@pytest.fixture()
def predictor(result):
    """A fresh predictor per test: deltas must not leak across tests."""
    return FoldInPredictor(result, artifact_id="query-test")


def _random_delta(rng, predictor, label_user=None):
    """One plausible ingest delta: arrivals, edges, tweets, a label."""
    total = predictor.world.n_users
    labels = {}
    if label_user is not None:
        labels[int(label_user)] = int(rng.integers(predictor.n_locations))
    return WorldDelta(
        new_users=[
            int(rng.integers(predictor.n_locations))
            if rng.random() < 0.5
            else None
            for _ in range(3)
        ],
        edges=[
            (int(s), int(d))
            for s, d in zip(
                rng.integers(0, total, 8), rng.integers(0, total, 8)
            )
            if s != d
        ],
        tweets=[
            (int(rng.integers(total)), int(rng.integers(predictor.n_venues)))
            for _ in range(5)
        ],
        labels=labels,
    )


class TestProjection:
    def test_matches_score_population(self, predictor):
        index = PredictionIndex.build(predictor, k=3)
        scores = score_population(
            predictor.world, predictor.result, predictor=predictor
        )
        assert index.generation == 0
        assert index.artifact_id == "query-test"
        assert list(index.user_ids) == sorted(scores)
        for pos, uid in enumerate(index.user_ids):
            prediction = scores[int(uid)]
            entries = prediction.top_entries(3)
            start, stop = index.topk_indptr[pos], index.topk_indptr[pos + 1]
            assert [
                (int(loc), float(p))
                for loc, p in zip(
                    index.topk_locs[start:stop], index.topk_probs[start:stop]
                )
            ] == [(loc, float(p)) for loc, p in entries]
            if entries:
                assert index.homes[pos] == entries[0][0]
                assert index.confidences[pos] == entries[0][1]
                assert index.confidences[pos] == prediction.confidence
            else:
                assert index.homes[pos] == -1
                assert index.confidences[pos] == 0.0

    def test_only_unlabeled_users_indexed(self, predictor):
        index = PredictionIndex.build(predictor)
        labeled = np.flatnonzero(predictor.world.labeled_mask)
        assert not set(labeled) & {int(u) for u in index.user_ids}

    def test_inverted_csr_round_trips(self, predictor):
        index = PredictionIndex.build(predictor)
        seen = []
        for loc in range(index.home_indptr.size - 1):
            pos = index.home_pos[
                index.home_indptr[loc] : index.home_indptr[loc + 1]
            ]
            assert (index.homes[pos] == loc).all()
            # Ascending user id within each location.
            assert (np.diff(index.user_ids[pos]) > 0).all()
            seen.append(pos)
        all_pos = np.sort(np.concatenate(seen))
        assert np.array_equal(all_pos, np.flatnonzero(index.homes >= 0))

    def test_top_cities_order_and_exclusions(self, predictor):
        index = PredictionIndex.build(predictor)
        locs, counts = index.top_cities(k=10_000)
        assert (counts > 0).all()
        # Descending count; ties broken by ascending location id.
        for i in range(len(locs) - 1):
            assert counts[i] >= counts[i + 1]
            if counts[i] == counts[i + 1]:
                assert locs[i] < locs[i + 1]
        assert counts.sum() == np.count_nonzero(index.homes >= 0)

    def test_confidence_filter(self, predictor):
        index = PredictionIndex.build(predictor)
        threshold = float(np.median(index.confidences[index.homes >= 0]))
        counts = index.city_counts(threshold)
        mask = (index.homes >= 0) & (index.confidences >= threshold)
        assert counts.sum() == np.count_nonzero(mask)
        all_locs = np.arange(index.home_indptr.size - 1)
        pos = index.residents_of(all_locs, threshold)
        assert (index.confidences[pos] >= threshold).all()
        assert pos.size == np.count_nonzero(mask)

    def test_stats_block(self, predictor):
        index = PredictionIndex.build(predictor)
        stats = index.stats()
        assert stats["indexed_users"] == len(index)
        assert stats["with_home"] == int(np.count_nonzero(index.homes >= 0))
        assert stats["matching"] == stats["with_home"]
        assert 0.0 < stats["mean_confidence"] <= 1.0


class TestRefresh:
    def test_refresh_equals_rebuild_bit_for_bit(self, predictor):
        rng = np.random.default_rng(7)
        index = PredictionIndex.build(predictor)
        for _ in range(3):
            predictor.refresh(_random_delta(rng, predictor, label_user=5))
            index = index.refreshed(predictor)
            rebuilt = PredictionIndex.build(predictor)
            assert index.generation == predictor.world.generation
            assert index.same_projection(rebuilt)

    def test_same_generation_is_a_noop(self, predictor):
        index = PredictionIndex.build(predictor)
        assert index.refreshed(predictor) is index

    def test_newly_labeled_user_leaves_the_index(self, predictor):
        index = PredictionIndex.build(predictor)
        uid = int(index.user_ids[0])
        predictor.refresh(WorldDelta(labels={uid: 2}))
        refreshed = index.refreshed(predictor)
        assert uid not in refreshed.user_ids
        assert refreshed.same_projection(PredictionIndex.build(predictor))

    def test_stale_predictor_rejected(self, predictor, result):
        rng = np.random.default_rng(3)
        predictor.refresh(_random_delta(rng, predictor))
        index = PredictionIndex.build(predictor)
        behind = FoldInPredictor(result, artifact_id="query-test")
        with pytest.raises(ValueError, match="behind the index"):
            index.refreshed(behind)

    def test_lost_window_raises_stale_window_error(self, predictor):
        rng = np.random.default_rng(9)
        index = PredictionIndex.build(predictor)
        predictor.refresh(_random_delta(rng, predictor))
        # Simulate compaction past the window: drop the retained log.
        predictor.world.delta_log = ()
        with pytest.raises(StaleWindowError):
            index.refreshed(predictor)


def _race_delta(rng, predictor, arrivals: bool) -> WorldDelta:
    """A delta with new users, or one touching only existing users."""
    if arrivals:
        return _random_delta(rng, predictor)
    src = rng.integers(0, predictor.world.n_users, 4)
    return WorldDelta(
        edges=[(int(s), int((s + 1) % predictor.world.n_users)) for s in src],
        tweets=[(int(src[0]), 0)],
    )


def _built_at(result, deltas) -> PredictionIndex:
    """A fresh full build over a predictor replaying ``deltas``."""
    reference = FoldInPredictor(result, artifact_id="query-test")
    for delta in deltas:
        reference.refresh(delta)
    return PredictionIndex.build(reference)


@pytest.mark.parametrize("arrivals", [True, False], ids=["arrivals", "edges"])
class TestIngestDuringIndexing:
    """An ingest landing after the index read ``predictor.world`` but
    before scoring finished: the answer must come from the generation
    the index is stamped with, equal to a fresh full build there, and
    the next answer must refresh past the late delta."""

    def _check(self, service, predictor, result, deltas, late):
        payload = service.answer("/query/aggregate", "")
        assert predictor.world.generation == len(deltas) + 1  # it raced
        assert payload["generation"] == len(deltas)
        assert service._index.same_projection(
            _built_at(result, deltas)
        )
        caught_up = service.answer("/query/aggregate", "")
        assert caught_up["generation"] == len(deltas) + 1
        assert service._index.same_projection(
            _built_at(result, deltas + [late])
        )

    def test_ingest_during_refresh(
        self, predictor, result, monkeypatch, arrivals
    ):
        import repro.data.delta as delta_mod

        rng = np.random.default_rng(21)
        service = QueryService(predictor)
        service.answer("/query/aggregate", "")
        first = _race_delta(rng, predictor, arrivals)
        predictor.refresh(first)
        late = _race_delta(rng, predictor, arrivals)
        real = delta_mod.touched_since
        fired = []

        def racing(world, since_generation):
            if not fired:
                fired.append(predictor.refresh(late))
            return real(world, since_generation)

        monkeypatch.setattr(delta_mod, "touched_since", racing)
        self._check(service, predictor, result, [first], late)

    def test_ingest_during_initial_build(
        self, predictor, result, monkeypatch, arrivals
    ):
        import repro.serving.batch as batch_mod

        rng = np.random.default_rng(22)
        service = QueryService(predictor)
        late = _race_delta(rng, predictor, arrivals)
        real = batch_mod.compile_world
        fired = []

        def racing(world):
            if not fired:
                fired.append(predictor.refresh(late))
            return real(world)

        monkeypatch.setattr(batch_mod, "compile_world", racing)
        self._check(service, predictor, result, [], late)


class TestQueryService:
    def test_lazy_build_then_incremental_refresh(self, predictor):
        service = QueryService(predictor)
        first = service.answer("/query/top-cities", "")
        assert first["generation"] == 0
        rng = np.random.default_rng(1)
        predictor.refresh(_random_delta(rng, predictor))
        second = service.answer("/query/top-cities", "")
        assert second["generation"] == predictor.world.generation
        assert service.stale_window_fallbacks == 0

    def test_lost_window_falls_back_loudly(self, predictor):
        service = QueryService(predictor)
        service.answer("/query/aggregate", "")
        rng = np.random.default_rng(2)
        predictor.refresh(_random_delta(rng, predictor))
        predictor.world.delta_log = ()
        with pytest.warns(RuntimeWarning, match="refresh window lost"):
            payload = service.answer("/query/aggregate", "")
        assert payload["generation"] == predictor.world.generation
        assert service.stale_window_fallbacks == 1
        # The loud rebuild still answers exactly like a fresh service.
        fresh = QueryService(predictor)
        assert payload == fresh.answer("/query/aggregate", "")

    @pytest.mark.parametrize(
        ("route", "query", "fragment"),
        [
            ("/query/radius", "radius=50&bogus=1", "unknown query parameter"),
            ("/query/radius", "radius=50&lat=1&lat=2", "duplicate"),
            ("/query/radius", "lat=1&lon=2", "radius"),
            ("/query/radius", "radius=50", "lat= and lon="),
            ("/query/radius", "radius=50&lat=95&lon=0", "lat"),
            ("/query/radius", "radius=-1&lat=0&lon=0", "radius"),
            ("/query/radius", "radius=50&city=x&lat=1&lon=2", "not both"),
            ("/query/top-cities", "k=zero", "integer"),
            ("/query/top-cities", "k=0", "k must be in"),
            ("/query/venue-residents", "", "exactly one"),
            ("/query/venue-residents", "venue=a&venue_id=1", "exactly one"),
            (
                "/query/venue-residents",
                "venue=no-such-venue-name",
                "unknown venue",
            ),
            ("/query/aggregate", "by=county", "state"),
            ("/query/aggregate", "min_confidence=2", "min_confidence"),
        ],
    )
    def test_bad_parameters_are_value_errors(
        self, predictor, route, query, fragment
    ):
        service = QueryService(predictor)
        with pytest.raises(ValueError, match=fragment):
            service.answer(route, query)

    def test_ambiguous_city_lists_states(self, predictor):
        gazetteer = predictor.dataset.gazetteer
        names = {}
        for loc in gazetteer:
            names.setdefault(loc.name.split(",")[0].lower(), []).append(loc)
        ambiguous = next(
            (name for name, locs in names.items() if len(locs) > 1), None
        )
        if ambiguous is None:
            pytest.skip("gazetteer slice has no ambiguous city name")
        service = QueryService(predictor)
        with pytest.raises(ValueError, match="ambiguous"):
            service.answer(
                "/query/radius", f"radius=10&city={ambiguous}"
            )

    def test_radius_city_center_matches_coordinates(self, predictor):
        gazetteer = predictor.dataset.gazetteer
        location = gazetteer.by_id(0)
        service = QueryService(predictor)
        city, state = location.name.split(", ")
        by_city = service.answer(
            "/query/radius",
            f"radius=100&city={city.replace(' ', '%20')}&state={state}",
        )
        by_coords = service.answer(
            "/query/radius",
            f"radius=100&lat={location.lat}&lon={location.lon}",
        )
        assert by_city["center"]["location"] == location.location_id
        assert by_city["users"] == by_coords["users"]
        assert by_city["locations"] == by_coords["locations"]
        assert by_city["total"] == by_coords["total"]

    def test_payloads_are_json_serializable(self, predictor):
        service = QueryService(predictor)
        for route, query in [
            ("/query/radius", "radius=5000&lat=40&lon=-95&limit=3"),
            ("/query/top-cities", "k=5"),
            ("/query/aggregate", "by=city"),
        ]:
            payload = service.answer(route, query)
            assert json.loads(json.dumps(payload)) == payload

    def test_limit_truncates_and_reports(self, predictor):
        service = QueryService(predictor)
        full = service.answer("/query/radius", "radius=25000&lat=40&lon=-95")
        cut = service.answer(
            "/query/radius", "radius=25000&lat=40&lon=-95&limit=2"
        )
        assert cut["total"] == full["total"]
        assert len(cut["users"]) == min(2, cut["total"])
        assert cut["truncated"] == (cut["total"] > 2)
        assert cut["users"] == full["users"][:2]
