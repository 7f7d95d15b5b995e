"""World-generation checkpoints: one format, one writer, one reader.

Journal snapshots and :class:`~repro.serving.store.WorldStore`
generations are both written by :func:`write_checkpoint` and read by
:func:`read_checkpoint`.  Pinned here: the two callers produce the same
bytes for the same world, identity survives the round trip, and a disk
error anywhere inside the writer reaches the caller without leaving a
partial checkpoint, moving ``CURRENT``, truncating the journal or
losing an acknowledged delta.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest
from faults import assert_worlds_identical, fail_disk, journal_file, random_delta

from repro.data.columnar import (
    CHECKPOINT_META,
    WORLD_ARRAY_KEYS,
    CheckpointError,
    compile_world,
    read_checkpoint,
    write_checkpoint,
)
from repro.data.delta import apply_delta
from repro.data.journal import DeltaJournal, append_and_apply, open_journal
from repro.serving.store import MANIFEST_FILE, WorldStore


@pytest.fixture(scope="module")
def base_world(tiny_world):
    return compile_world(tiny_world)


@pytest.fixture(scope="module")
def grown(base_world):
    """A generation-2 world with a chained (not array) content hash."""
    rng = np.random.default_rng(5)
    world = base_world
    for _ in range(2):
        world = apply_delta(world, random_delta(world, rng))
    return world


def _tree_bytes(directory) -> dict:
    """``{relative path: bytes}`` of every file under ``directory``."""
    out = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


class TestFormat:
    def test_round_trip_restamps_identity(self, grown, tmp_path):
        meta = write_checkpoint(grown, tmp_path / "ckpt", note="x")
        assert meta["note"] == "x"
        for mmap in (True, False):
            loaded = read_checkpoint(
                grown.gazetteer, tmp_path / "ckpt", mmap=mmap, verify=True
            )
            assert loaded.generation == loaded.world.generation == 2
            assert loaded.world.content_hash == grown.content_hash
            assert loaded.meta == meta
            assert_worlds_identical(loaded.world, grown)
            arena = loaded.world.edge_src
            assert isinstance(arena, np.memmap) == mmap
            assert arena.flags.writeable != mmap

    def test_verify_rejects_a_corrupt_arena(self, grown, tmp_path):
        write_checkpoint(grown, tmp_path / "ckpt")
        arena = tmp_path / "ckpt" / "venue_mention_counts.npy"
        data = bytearray(arena.read_bytes())
        data[-1] ^= 0xFF
        arena.write_bytes(bytes(data))
        read_checkpoint(grown.gazetteer, tmp_path / "ckpt")  # no digest pass
        with pytest.raises(CheckpointError, match="recorded digest"):
            read_checkpoint(grown.gazetteer, tmp_path / "ckpt", verify=True)

    def test_unknown_format_version_is_rejected(self, grown, tmp_path):
        write_checkpoint(grown, tmp_path / "ckpt")
        meta_path = tmp_path / "ckpt" / CHECKPOINT_META
        meta_path.write_text(
            meta_path.read_text().replace(
                '"format_version": 1', '"format_version": 99'
            )
        )
        with pytest.raises(CheckpointError, match="format 99"):
            read_checkpoint(grown.gazetteer, tmp_path / "ckpt")

    def test_journal_snapshot_and_store_generation_are_one_format(
        self, grown, tmp_path
    ):
        snapshot = DeltaJournal(tmp_path / "journal").snapshot(grown)
        store = WorldStore(tmp_path / "store", grown.gazetteer)
        store.publish(grown, label_users=[3, 7])
        generation = tmp_path / "store" / f"gen-{grown.generation:012d}"
        snap_files = _tree_bytes(snapshot)
        gen_files = _tree_bytes(generation)
        arrays = {f"{key}.npy" for key in WORLD_ARRAY_KEYS}
        assert set(snap_files) == set(gen_files) == arrays | {CHECKPOINT_META}
        for name in arrays:
            assert snap_files[name] == gen_files[name], name
        snap_meta = read_checkpoint(grown.gazetteer, snapshot).meta
        gen_meta = read_checkpoint(grown.gazetteer, generation).meta
        assert set(gen_meta) - set(snap_meta) == {"label_users"}
        assert set(snap_meta) <= set(gen_meta)
        for key in set(snap_meta) - {"created_unix"}:
            assert snap_meta[key] == gen_meta[key], key
        assert gen_meta["label_users"] == [3, 7]


#: Fault sites inside the writer: the first and last arena write, the
#: first arena fsync, the ``meta.json`` fsync (one per arena, then
#: meta) and the temp directory's fsync -- all before the rename.
SITES = [
    ("write", 1),
    ("write", len(WORLD_ARRAY_KEYS)),
    ("fsync", 1),
    ("fsync", len(WORLD_ARRAY_KEYS) + 1),
    ("fsync", len(WORLD_ARRAY_KEYS) + 2),
]
ERRORS = [errno.ENOSPC, errno.EIO]


def _site_id(site) -> str:
    return f"{site[0]}{site[1]}"


@pytest.mark.parametrize("error", ERRORS, ids=errno.errorcode.get)
@pytest.mark.parametrize("site", SITES, ids=_site_id)
class TestDiskErrors:
    @pytest.mark.parametrize("method", ["snapshot", "compact"])
    def test_journal_checkpoint(
        self, base_world, tmp_path, monkeypatch, site, error, method
    ):
        rng = np.random.default_rng(11)
        world, journal, _ = open_journal(tmp_path, base_world)
        for _ in range(2):
            world = append_and_apply(journal, world, random_delta(world, rng))
        journal.compact(world)  # the older snapshot that must survive
        for _ in range(2):
            world = append_and_apply(journal, world, random_delta(world, rng))
        before = _tree_bytes(tmp_path)
        entries = sorted(os.listdir(tmp_path))

        raised = fail_disk(monkeypatch, site[0], error, at=site[1])
        with pytest.raises(OSError) as info:
            getattr(journal, method)(world)
        monkeypatch.undo()
        assert raised and info.value.errno == error

        # Nothing visible moved: no partial snapshot or temp dir, the
        # older snapshot and the (untruncated) journal are byte-equal.
        assert sorted(os.listdir(tmp_path)) == entries
        assert _tree_bytes(tmp_path) == before
        journal.close()
        recovered, journal2, report = open_journal(tmp_path, base_world)
        journal2.close()
        assert report["snapshot_generation"] == 2
        assert recovered.content_hash == world.content_hash
        assert_worlds_identical(recovered, world)

    def test_store_publish(
        self, base_world, tmp_path, monkeypatch, site, error
    ):
        rng = np.random.default_rng(12)
        store = WorldStore(tmp_path, base_world.gazetteer)
        world1 = apply_delta(base_world, random_delta(base_world, rng))
        store.publish(base_world)
        store.publish(world1)
        current = (tmp_path / MANIFEST_FILE).read_bytes()
        entries = sorted(os.listdir(tmp_path))
        world2 = apply_delta(world1, random_delta(world1, rng))

        raised = fail_disk(monkeypatch, site[0], error, at=site[1])
        with pytest.raises(OSError) as info:
            store.publish(world2, label_users=[1])
        monkeypatch.undo()
        assert raised and info.value.errno == error

        assert sorted(os.listdir(tmp_path)) == entries
        assert (tmp_path / MANIFEST_FILE).read_bytes() == current
        assert store.acquire(verify=True).world.content_hash == world1.content_hash
        # Once the disk recovers, the same generation publishes cleanly.
        store.publish(world2, label_users=[1])
        assert store.acquire(verify=True).world.content_hash == world2.content_hash


@pytest.mark.parametrize("error", ERRORS, ids=errno.errorcode.get)
def test_error_after_the_rename_still_reaches_the_caller(
    base_world, tmp_path, monkeypatch, error
):
    """The parent-directory fsync runs after the rename: the checkpoint
    is complete but not yet durable, so the caller must still fail --
    a compaction must not truncate the journal behind it."""
    rng = np.random.default_rng(13)
    world, journal, _ = open_journal(tmp_path, base_world)
    world = append_and_apply(journal, world, random_delta(world, rng))
    wal = journal_file(tmp_path).read_bytes()
    fail_disk(monkeypatch, "fsync", error, at=len(WORLD_ARRAY_KEYS) + 3)
    with pytest.raises(OSError):
        journal.compact(world)
    monkeypatch.undo()
    assert journal_file(tmp_path).read_bytes() == wal
    (snapshot,) = journal.snapshot_paths()
    read_checkpoint(world.gazetteer, snapshot, verify=True)  # complete
    journal.close()
    recovered, journal2, _ = open_journal(tmp_path, base_world)
    journal2.close()
    assert recovered.content_hash == world.content_hash
