"""Fault-injection helpers for the crash-recovery test harness.

Small, reusable corruption primitives over a journal directory --
torn writes (truncate mid-record), bit flips, duplicated tails -- and
disk errors (``ENOSPC``/``EIO`` raised by the n-th write or fsync of
the checkpoint writer), plus the golden-world comparators the recovery
tests assert with: a from-scratch recompile of a delta prefix and a
bit-for-bit world equality check.  Kept out of the test modules so the
property-based suite and the CLI round-trip tests can share one
vocabulary of faults.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.data.columnar import WORLD_ARRAY_KEYS, ColumnarWorld
from repro.data.delta import WorldDelta
from repro.data.journal import JOURNAL_FILE, scan_journal


def journal_file(directory) -> Path:
    return Path(directory) / JOURNAL_FILE


def record_spans(directory) -> list[tuple[int, int]]:
    """Byte spans ``[start, end)`` of every valid record on disk."""
    records, _end, _err = scan_journal(journal_file(directory))
    return [(r.start, r.end) for r in records]


def truncate_at(directory, offset: int) -> None:
    """Torn write: cut the journal file to exactly ``offset`` bytes."""
    with open(journal_file(directory), "r+b") as fh:
        fh.truncate(offset)


def flip_byte(directory, offset: int, mask: int = 0xFF) -> None:
    """Bit-flip corruption at ``offset`` (XOR with ``mask``)."""
    path = journal_file(directory)
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data))


def duplicate_tail(directory) -> None:
    """Re-append the last record verbatim (a crash-retry artifact)."""
    path = journal_file(directory)
    start, end = record_spans(directory)[-1]
    data = path.read_bytes()
    with open(path, "ab") as fh:
        fh.write(data[start:end])


def fail_disk(monkeypatch, op: str, error: int, at: int = 1) -> list:
    """Make the ``at``-th checkpoint ``write`` or ``fsync`` raise ``error``.

    ``write`` fails an arena write (``np.save`` inside
    :meth:`ColumnarWorld.dump_dir`), ``fsync`` an ``os.fsync`` call --
    file or directory.  Earlier calls go through, so a fault can land
    mid-checkpoint.  Returns the list of raised errors (empty if the
    fault never fired).
    """
    target, name = {"write": (np, "save"), "fsync": (os, "fsync")}[op]
    real = getattr(target, name)
    calls = [0]
    raised: list[OSError] = []

    def faulty(*args, **kwargs):
        calls[0] += 1
        if calls[0] == at:
            raised.append(OSError(error, os.strerror(error)))
            raise raised[-1]
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, faulty)
    return raised


# -- golden comparators ------------------------------------------------------


def random_delta(world, rng, n_new=5, n_edges=20, n_tweets=25, n_labels=4):
    """A valid random delta against ``world`` (arrivals may interlink)."""
    n_old = world.n_users
    n_total = n_old + n_new
    new_users = []
    for _ in range(n_new):
        observed = (
            int(rng.integers(0, world.n_locations))
            if rng.random() < 0.5
            else None
        )
        new_users.append({"observed_location": observed})
    edges = set()
    while len(edges) < n_edges:
        a = int(rng.integers(0, n_total))
        b = int(rng.integers(0, n_total))
        if a != b:
            edges.add((a, b))
    tweets = [
        [int(rng.integers(0, n_total)), int(rng.integers(0, world.n_venues))]
        for _ in range(n_tweets)
    ]
    labels = {}
    for _ in range(n_labels):
        uid = int(rng.integers(0, n_old))
        labels[str(uid)] = (
            int(rng.integers(0, world.n_locations))
            if rng.random() < 0.75
            else None
        )
    return WorldDelta.from_payload(
        {
            "new_users": new_users,
            "edges": sorted(edges),
            "tweets": tweets,
            "labels": labels,
        }
    )


def recompiled(world, deltas):
    """From-scratch compile of ``world`` + ``deltas`` -- the golden twin.

    Concatenates the base world's relationship arenas with every
    delta's arrivals/edges/tweets, patches labels last-write-wins, and
    recompiles through ``from_edge_arrays`` -- no splicing involved, so
    agreement with an ``apply_delta``/journal-replay world proves the
    incremental path bit-exact.
    """
    observed = [world.observed_location]
    edge_src = [world.edge_src]
    edge_dst = [world.edge_dst]
    tweet_user = [world.tweet_user]
    tweet_venue = [world.tweet_venue]
    label_patches: list[tuple[int, int]] = []
    for delta in deltas:
        observed.append(delta.new_user_labels)
        edge_src.append(delta.edge_src)
        edge_dst.append(delta.edge_dst)
        tweet_user.append(delta.tweet_user)
        tweet_venue.append(delta.tweet_venue)
        label_patches.extend(
            zip(delta.label_users.tolist(), delta.label_locations.tolist())
        )
    observed_all = np.concatenate(observed)
    for uid, loc in label_patches:
        observed_all[uid] = loc
    return ColumnarWorld.from_edge_arrays(
        world.gazetteer,
        observed_all,
        np.concatenate(edge_src),
        np.concatenate(edge_dst),
        np.concatenate(tweet_user),
        np.concatenate(tweet_venue),
    )


def assert_worlds_identical(actual, expected) -> None:
    """Bit-for-bit equality of two worlds' full array sets."""
    for key in WORLD_ARRAY_KEYS:
        a = getattr(actual, key)
        b = getattr(expected, key)
        assert a.dtype == b.dtype, f"{key}: dtype {a.dtype} != {b.dtype}"
        assert np.array_equal(a, b), f"{key}: arrays differ"
    assert actual.rehash() == expected.rehash()
