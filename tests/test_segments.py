"""Segment-backed FilterStore: lazy mapped open, CoW, atomicity, parity.

Acceptance contract of the mapped-segment engine (ISSUE 5 / DESIGN.md §10):

* ``FilterStore.open`` on a segment snapshot is O(manifest) — levels stay on
  disk as pending refs and map on the first probe that reaches their shard;
* mapped levels answer delete-free reads **bit-identically** to the
  in-memory store they were snapshotted from, property-tested over
  interleaved insert/delete/query traces including after compaction;
* mutating a reopened store promotes only the touched levels to heap
  (copy-on-write) and never writes the segment files;
* ``snapshot`` is atomic: an injected failure mid-snapshot leaves the
  previous snapshot untouched and no staging debris behind;
* the one manifest reader refuses anything but format 2 of segment levels
  with one record per shard, whether ``open``, ``refresh`` or ``inspect``
  reads it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import repro.store.store as store_module
from repro.ccf.attributes import AttributeSchema
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Eq
from repro.ccf.serialize import SerializeError
from repro.store import FilterStore, StoreConfig
from repro.store.__main__ import main as store_main

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(key_bits=24, attr_bits=16, bucket_size=4, seed=23)
COLORS = ("red", "green", "blue")


def make_store(**overrides) -> FilterStore:
    config = StoreConfig(
        **{"num_shards": 2, "level_buckets": 64, "target_load": 0.8, **overrides}
    )
    return FilterStore(SCHEMA, PARAMS, config)


def row_columns(keys: np.ndarray) -> list:
    return [np.array(COLORS, dtype=object)[keys % 3], keys % 11]


def snapshot_digests(root) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
    }


class TestLazyMappedOpen:
    def test_open_defers_mapping_until_first_probe(self, tmp_path):
        store = make_store()
        keys = np.arange(3000, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        root = store.snapshot(tmp_path / "snap")
        assert sorted(p.suffix for p in root.iterdir() if p.suffix != ".json") == [
            ".seg"
        ] * store.num_levels

        reopened = FilterStore.open(root)
        assert all(s.num_pending_segments > 0 for s in reopened.shards)
        # num_levels counts pending refs without materialising anything.
        assert reopened.num_levels == store.num_levels
        assert all(s.num_pending_segments > 0 for s in reopened.shards)

        probe = np.arange(6000, dtype=np.int64)
        assert (reopened.query_many(probe) == store.query_many(probe)).all()
        assert all(s.num_pending_segments == 0 for s in reopened.shards)
        # Every level's typed columns are file-backed after mapping.
        stats = reopened.stats()
        assert stats["mapped_bytes"] > 0
        assert stats["resident_bytes"] == 0

    def test_mapped_levels_are_memmaps(self, tmp_path):
        store = make_store(num_shards=1)
        keys = np.arange(800, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        reopened = FilterStore.open(store.snapshot(tmp_path / "snap"))
        for level in reopened.shards[0].levels:
            assert isinstance(level.buckets.fps, np.memmap)
            assert not level.buckets.fps.flags.writeable

    def test_mutation_promotes_only_touched_levels(self, tmp_path):
        store = make_store(num_shards=1)
        keys = np.arange(2000, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        root = store.snapshot(tmp_path / "snap")
        before = snapshot_digests(root)

        reopened = FilterStore.open(root)
        assert reopened.delete(150, (COLORS[150 % 3], 150 % 11))
        assert not reopened.query(150)
        shard = reopened.shards[0]
        promoted = [
            level for level in shard.levels if not isinstance(level.buckets.fps, np.memmap)
        ]
        assert len(promoted) == 1  # only the owning level paid the copy
        stats = reopened.stats()
        assert stats["mapped_bytes"] > 0 and stats["resident_bytes"] > 0
        # Copy-on-write: the files on disk are untouched.
        assert snapshot_digests(root) == before
        # And a second open still sees the pre-mutation answers.
        assert FilterStore.open(root).query(150)

    def test_corrupt_segment_fails_loudly_and_repeatably(self, tmp_path):
        """A bad segment must raise on *every* probe — never silently empty
        the shard into false negatives after the first failure."""
        store = make_store(num_shards=1)
        keys = np.arange(1000, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        root = store.snapshot(tmp_path / "snap")
        victim = sorted(root.glob("*.seg"))[0]
        victim.write_bytes(victim.read_bytes()[:100])

        reopened = FilterStore.open(root)
        with pytest.raises(SerializeError):
            reopened.query_many(keys)
        # The refs stay pending, so the failure repeats instead of the
        # store answering all-False over an emptied level stack.
        with pytest.raises(SerializeError):
            reopened.query_many(keys)
        assert reopened.num_levels == store.num_levels


class TestMappedParity:
    @pytest.mark.parametrize("trace_seed", [1, 2, 3])
    def test_interleaved_trace_then_mapped_reads_match(self, tmp_path, trace_seed):
        """Acceptance: after an interleaved insert/delete trace (with mid-trace
        compaction), a segment-reopened store answers every key-only and
        predicate probe bit-identically to the live store — and again after
        compacting the *mapped* store itself."""
        rng = np.random.default_rng(trace_seed)
        store = make_store()
        live: set[tuple[int, str, int]] = set()
        universe = 2500
        for round_index in range(8):
            keys = rng.integers(0, universe, size=300).astype(np.int64)
            columns = row_columns(keys)
            store.insert_many(keys, columns)
            live.update(
                (int(k), c, int(s)) for k, c, s in zip(keys, columns[0], columns[1])
            )
            if live and round_index % 2:
                candidates = sorted(live)
                pick = rng.choice(
                    len(candidates), size=min(80, len(candidates)), replace=False
                )
                victims = [candidates[i] for i in pick.tolist()]
                vkeys = np.array([v[0] for v in victims], dtype=np.int64)
                vcols = [[v[1] for v in victims], [v[2] for v in victims]]
                store.delete_many(vkeys, vcols)
                live.difference_update(victims)
            if round_index == 4:
                store.compact()

        root = store.snapshot(tmp_path / "snap")
        reopened = FilterStore.open(root)
        probe = rng.integers(0, 2 * universe, size=1500).astype(np.int64)
        compiled = Eq("color", "blue")
        assert (reopened.query_many(probe) == store.query_many(probe)).all()
        assert (
            reopened.query_many(probe, compiled) == store.query_many(probe, compiled)
        ).all()
        truth = np.array([int(k) in {k for k, _c, _s in live} for k in probe])
        assert (reopened.query_many(probe) == truth).all()

        # Compaction streams the mapped columns into one heap level; answers
        # are unchanged and the merged store keeps serving.
        reopened.compact()
        assert (reopened.query_many(probe) == truth).all()
        assert (
            reopened.query_many(probe, compiled) == store.query_many(probe, compiled)
        ).all()

    def test_reopened_store_keeps_serving_mutations(self, tmp_path):
        store = make_store()
        keys = np.arange(2000, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        reopened = FilterStore.open(store.snapshot(tmp_path / "snap"))
        extra = np.arange(10**6, 10**6 + 700, dtype=np.int64)
        assert reopened.insert_many(extra, row_columns(extra)).all()
        assert reopened.query_many(extra).all()
        assert reopened.query_many(keys).all()
        assert len(reopened) == len(store) + len(extra)



def _format_1(manifest: dict) -> str:
    manifest["format"] = 1
    for record in manifest["shards"]:
        record["levels"] = [entry["file"] for entry in record["levels"]]
    return json.dumps(manifest)


def _ccf_level(manifest: dict) -> str:
    manifest["shards"][0]["levels"][0]["format"] = "ccf"
    return json.dumps(manifest)


def _missing_shard(manifest: dict) -> str:
    manifest["shards"].pop()
    return json.dumps(manifest)


def _not_json(manifest: dict) -> str:
    return json.dumps(manifest)[:-40]


class TestManifestReader:
    """Every manifest but format 2 of segment levels, one record per shard,
    is refused loudly — by ``open``, ``refresh`` and ``inspect`` alike."""

    @pytest.mark.parametrize(
        "corrupt",
        [_format_1, _ccf_level, _missing_shard, _not_json],
        ids=["format-1", "ccf-level", "shard-count", "not-json"],
    )
    def test_open_refresh_and_inspect_reject(self, tmp_path, capsys, corrupt):
        store = make_store()
        keys = np.arange(2000, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        root = store.snapshot(tmp_path / "snap")
        manifest_path = root / "manifest.json"
        manifest_path.write_text(corrupt(json.loads(manifest_path.read_text())))

        with pytest.raises(SerializeError) as opened:
            FilterStore.open(root)
        assert opened.value.source == str(manifest_path)
        replica = make_store()
        with pytest.raises(SerializeError):
            replica.refresh(root)
        assert store_main(["inspect", str(root)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"error: {opened.value}"]


class TestAtomicSnapshot:
    def test_failure_mid_snapshot_preserves_previous_store(self, tmp_path, monkeypatch):
        store = make_store()
        keys = np.arange(2000, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        root = store.snapshot(tmp_path / "snap")
        before = snapshot_digests(root)

        # Grow the store, then crash the second snapshot after a few levels.
        extra = np.arange(10**5, 10**5 + 1000, dtype=np.int64)
        store.insert_many(extra, row_columns(extra))
        calls = {"n": 0}
        real_write = store_module.write_segment

        def failing_write(level, path):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError("disk full (injected)")
            return real_write(level, path)

        monkeypatch.setattr(store_module, "write_segment", failing_write)
        with pytest.raises(OSError, match="injected"):
            store.snapshot(root)

        # The previous snapshot is bit-for-bit intact and still opens.
        assert snapshot_digests(root) == before
        reopened = FilterStore.open(root)
        assert reopened.query_many(keys).all()
        assert not reopened.query_many(extra).any()
        # No staging or displaced directories left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["snap"]

    def test_failure_on_fresh_path_leaves_nothing(self, tmp_path, monkeypatch):
        store = make_store()
        keys = np.arange(500, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))

        def always_fail(level, path):
            raise OSError("disk full (injected)")

        monkeypatch.setattr(store_module, "write_segment", always_fail)
        with pytest.raises(OSError, match="injected"):
            store.snapshot(tmp_path / "snap")
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_replaces_previous_snapshot(self, tmp_path):
        store = make_store()
        keys = np.arange(1000, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        root = store.snapshot(tmp_path / "snap")
        extra = np.arange(10**5, 10**5 + 500, dtype=np.int64)
        store.insert_many(extra, row_columns(extra))
        store.snapshot(root)
        reopened = FilterStore.open(root)
        assert reopened.query_many(np.concatenate([keys, extra])).all()
        assert [p.name for p in tmp_path.iterdir()] == ["snap"]
