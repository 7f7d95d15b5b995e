"""Seeded inputs: worlds, delta streams and request schedules.

Every input is a pure function of the workload seed; the program under
test only ever sees the generated worlds and requests.
"""

from __future__ import annotations

import json

import numpy as np

from loadgen import Op

#: Default-shape world of the ``fit-default`` workload.
FIT_USERS = 800
#: Default-shape world served by ``serve-read``.
SERVE_USERS = 1000
#: Sparse world served by ``ingest-mix`` (ingest costs grow with it).
INGEST_USERS = 8000
INGEST_SHAPE = {"mean_friends": 3.0, "mean_venues": 4.0}
#: Share of labeled users hidden from every fit and scored by ACC@100.
HOLDOUT = 0.2


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, stream])


def make_world(n_users: int, seed: int, **shape):
    """Generate a synthetic world and hide ``HOLDOUT`` of its labels."""
    from repro import SyntheticWorldConfig, generate_world
    from repro.evaluation.splits import single_holdout_split

    dataset = generate_world(SyntheticWorldConfig(n_users=n_users, seed=seed, **shape))
    return dataset, single_holdout_split(dataset, HOLDOUT, seed=seed)


class DeltaStream:
    """Small arrival batches: new users with follows and venue mentions,
    follows among existing users, and an occasional label update.

    Each delta is valid against the world that every earlier delta of
    the stream produced, so the stream must be applied in order.
    """

    def __init__(self, n_users: int, n_venues: int, n_locations: int, rng):
        self.n_users = n_users
        self.n_venues = n_venues
        self.n_locations = n_locations
        self.rng = rng
        self.count = 0

    def next(self) -> dict:
        """The next delta, as an ``/ingest`` JSON body."""
        rng = self.rng
        base = self.n_users
        k = int(rng.integers(1, 4))
        new_users = []
        for _ in range(k):
            if rng.random() < 0.3:
                new_users.append({"observed_location": int(rng.integers(self.n_locations))})
            else:
                new_users.append({})
        edges, tweets = [], []
        for j in range(k):
            user = base + j
            for friend in rng.choice(base, size=int(rng.integers(1, 4)), replace=False):
                edges.append([user, int(friend)])
            if rng.random() < 0.5:
                edges.append([int(rng.integers(base)), user])
            for venue in rng.integers(self.n_venues, size=int(rng.integers(1, 4))):
                tweets.append([user, int(venue)])
        for _ in range(int(rng.integers(0, 3))):
            a, b = rng.choice(base, size=2, replace=False)
            edges.append([int(a), int(b)])
        payload = {"new_users": new_users, "edges": edges, "tweets": tweets}
        if self.count % 8 == 7:
            payload["labels"] = {
                str(int(rng.integers(base))): int(rng.integers(self.n_locations))
            }
        self.n_users += k
        self.count += 1
        return payload


class SpecMaker:
    """Fold-in specs with evidence no earlier spec of the run shares."""

    def __init__(self, n_users: int, n_venues: int, rng):
        self.n_users = n_users
        self.n_venues = n_venues
        self.rng = rng
        self._seen: set = set()

    def unique(self) -> dict:
        """A spec with fresh evidence (misses every cache)."""
        rng = self.rng
        while True:
            friends = sorted(int(u) for u in rng.choice(self.n_users, int(rng.integers(2, 6)), replace=False))
            venues = sorted(int(v) for v in rng.choice(self.n_venues, int(rng.integers(1, 5)), replace=False))
            key = (tuple(friends), tuple(venues))
            if key not in self._seen:
                self._seen.add(key)
                return {"friends": friends, "venues": venues}


def _encode(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def query_paths(gazetteer, rng, kinds) -> str:
    """One ``/query/*`` path of a kind drawn from ``kinds``."""
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "radius":
        loc = gazetteer.by_id(int(rng.integers(len(gazetteer))))
        return (
            f"/query/radius?lat={loc.lat}&lon={loc.lon}"
            f"&radius={int(rng.integers(25, 151))}&limit=20"
        )
    if kind == "top-cities":
        return f"/query/top-cities?k={int(rng.integers(5, 16))}"
    if kind == "venue-residents":
        venue = int(rng.integers(len(gazetteer.venue_vocabulary)))
        return f"/query/venue-residents?venue_id={venue}&limit=20"
    return f"/query/aggregate?by={'state' if rng.random() < 0.5 else 'city'}"


def poisson_times(rng, rate: float, seconds: float) -> list[float]:
    """Arrival offsets at ``rate`` per second over ``[0, seconds)``.

    The gaps are exponential, drawn by stratified sampling: the n gaps
    are the exponential quantiles of n jittered strata, in a seeded
    random order.  Every run thus sees the same gap histogram (the
    share of back-to-back arrivals barely varies with the seed) while
    the order of bursts and lulls still does.
    """
    n = int(rate * seconds)
    u = (rng.permutation(n) + rng.random(n)) / n
    gaps = -np.log1p(-u) / rate
    times = np.cumsum(gaps)
    return [float(t) for t in times if t < seconds]


class ServeReadMix:
    """The ``serve-read`` request mix.

    60% ``/predict-home`` with unique evidence (cache misses), 15%
    ``/predict-home`` replaying a 32-user hot set (cache hits), 10%
    ``/predict-batch`` blocks of 32-40 unique specs (the batch engine),
    15% ``/query/*`` over all four routes.  Every 4th request of the
    byte-checkable kinds keeps its body for the correctness gate.

    Mixes that feed one server share ``specs``, so no two requests of
    a run carry the same evidence.
    """

    def __init__(self, rng, gazetteer, specs: SpecMaker, hot: list):
        self.rng = rng
        self.gazetteer = gazetteer
        self.specs = specs
        self.hot = hot
        self.n = 0

    def next(self) -> Op:
        """The next request of the mix."""
        rng = self.rng
        self.n += 1
        check = self.n % 4 == 0
        draw = rng.random()
        if draw < 0.80:
            body = {"users": [self.specs.unique()]}
            return Op("read", "POST", "/predict-home", _encode(body), check=check)
        if draw < 0.87:
            user = self.hot[int(rng.integers(len(self.hot)))]
            return Op("read", "POST", "/predict-home", _encode({"users": [{"user_id": user}]}))
        if draw < 0.92:
            specs = [self.specs.unique() for _ in range(int(rng.integers(32, 41)))]
            return Op("read", "POST", "/predict-batch", _encode(specs), check=check)
        path = query_paths(self.gazetteer, rng, ("radius", "top-cities", "venue-residents", "aggregate"))
        return Op("read", "GET", path, check=check)


class IngestReadMix:
    """Reads of ``ingest-mix``: replayed ``/predict-home`` of known users
    (half) and ``/query/radius`` / ``/query/top-cities`` (half)."""

    def __init__(self, rng, gazetteer, users: list):
        self.rng = rng
        self.gazetteer = gazetteer
        self.users = users

    def next(self) -> Op:
        """The next read."""
        rng = self.rng
        if rng.random() < 0.5:
            user = self.users[int(rng.integers(len(self.users)))]
            return Op("read", "POST", "/predict-home", _encode({"users": [{"user_id": user}]}))
        return Op("read", "GET", query_paths(self.gazetteer, rng, ("radius", "top-cities")))


def write_op(payload: dict) -> Op:
    """An ``/ingest`` request carrying one delta."""
    return Op("write", "POST", "/ingest", _encode(payload))


def label_ops(ops, prefix: str) -> list:
    """Give every op a request id unique within the run."""
    for i, op in enumerate(ops):
        op.rid = f"{prefix}{i}"
    return ops
