"""FilterStore: sharding, level growth, delete routing, compaction, persistence.

The load-bearing property is **store/monolith parity**: an interleaved
insert/delete/query trace against a sharded, levelled FilterStore answers
exactly like (a) a single oversized plain CCF replaying the same trace and
(b) exact ground truth — across level rolls, compactions and a
snapshot/open round-trip.  Fingerprints are kept wide (20-bit keys, 16-bit
attributes) so false positives cannot blur the equality within the tiny
key universes used here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.params import CCFParams
from repro.ccf.plain import PlainCCF
from repro.ccf.predicates import Eq
from repro.ccf.serialize import SerializeError
from repro.store import FilterStore, StoreConfig

SCHEMA = AttributeSchema(["color", "size"])
#: Wide fingerprints: FP probability per probe is ~slots * 2^-24, i.e.
#: negligible over these traces, so equality assertions are deterministic.
PARAMS = CCFParams(key_bits=24, attr_bits=16, bucket_size=4, seed=23)

COLORS = ("red", "green", "blue")


def make_store(**overrides) -> FilterStore:
    config = StoreConfig(
        **{
            "num_shards": 4,
            "level_buckets": 64,
            "target_load": 0.8,
            **overrides,
        }
    )
    return FilterStore(SCHEMA, PARAMS, config)


def row_columns(keys: np.ndarray) -> list:
    colors = np.array(COLORS, dtype=object)[keys % 3]
    sizes = keys % 11
    return [colors, sizes]


class TestLevelGrowth:
    def test_unbounded_growth_past_single_level(self, tmp_path):
        """Acceptance: fill to 4x one level's capacity; answers stay exact
        before and after compact() and across a snapshot()/open() trip."""
        store = make_store(num_shards=2)
        level_capacity = store.config.level_buckets * PARAMS.bucket_size
        keys = np.arange(4 * level_capacity, dtype=np.int64)
        assert store.insert_many(keys, row_columns(keys)).all()
        # The stack really grew: no single level can hold this.
        assert store.num_levels > store.config.num_shards
        assert len(store) == len(keys)

        absent = np.arange(10**6, 10**6 + 4096, dtype=np.int64)
        assert store.query_many(keys).all()
        assert not store.query_many(absent).any()

        compiled = store.compile(Eq("color", "red"))
        red = keys % 3 == 0
        answers = store.query_many(keys, compiled)
        assert (answers == red).all()

        store.compact()
        assert store.num_levels == store.config.num_shards
        assert store.query_many(keys).all()
        assert not store.query_many(absent).any()
        assert (store.query_many(keys, compiled) == red).all()

        reopened = FilterStore.open(store.snapshot(tmp_path / "snap"))
        assert reopened.query_many(keys).all()
        assert not reopened.query_many(absent).any()
        assert (reopened.query_many(keys, reopened.compile(Eq("color", "red"))) == red).all()

    def test_active_level_rolls_at_target_load(self):
        store = make_store(num_shards=1, target_load=0.5)
        capacity = store.config.level_buckets * PARAMS.bucket_size
        keys = np.arange(capacity, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        shard = store.shards[0]
        assert len(shard.levels) >= 2
        for level in shard.levels[:-1]:
            assert level.load_factor() <= 0.5 + 1e-9

    def test_auto_compaction_bounds_the_stack(self):
        store = make_store(num_shards=1, compact_at=3)
        keys = np.arange(6 * store.config.level_buckets * PARAMS.bucket_size, dtype=np.int64)
        for chunk in np.array_split(keys, 16):
            store.insert_many(chunk, row_columns(chunk))
        shard = store.shards[0]
        assert len(shard.levels) <= 3
        assert shard.num_compactions >= 1
        assert store.query_many(keys).all()


class TestMonolithParity:
    @pytest.mark.parametrize("trace_seed", [1, 2, 3])
    def test_interleaved_trace_matches_oversized_ccf(self, trace_seed):
        """Store answers == single oversized CCF == ground truth, throughout."""
        rng = np.random.default_rng(trace_seed)
        store = make_store()
        reference = PlainCCF(SCHEMA, 4096, PARAMS)
        live: set[tuple[int, str, int]] = set()
        universe = 3000
        compiled_store = store.compile(Eq("color", "blue"))
        compiled_ref = reference.compile(Eq("color", "blue"))

        def check():
            probe = rng.integers(0, 2 * universe, size=400).astype(np.int64)
            live_keys = {k for k, _c, _s in live}
            truth = np.array([int(k) in live_keys for k in probe])
            from_store = store.query_many(probe)
            from_ref = reference.query_many(probe)
            assert (from_store == truth).all()
            assert (from_ref == truth).all()
            blue_keys = {k for k, c, _s in live if c == "blue"}
            blue_truth = np.array([int(k) in blue_keys for k in probe])
            assert (store.query_many(probe, compiled_store) == blue_truth).all()
            assert (reference.query_many(probe, compiled_ref) == blue_truth).all()

        for round_index in range(12):
            keys = rng.integers(0, universe, size=300).astype(np.int64)
            columns = row_columns(keys)
            store.insert_many(keys, columns)
            reference.insert_many(keys, columns)
            live.update(
                (int(k), c, int(s)) for k, c, s in zip(keys, columns[0], columns[1])
            )

            if live and round_index % 2:
                candidates = sorted(live)
                pick = rng.choice(
                    len(candidates), size=min(100, len(candidates)), replace=False
                )
                victims = [candidates[i] for i in pick.tolist()]
                vkeys = np.array([v[0] for v in victims], dtype=np.int64)
                vcols = [[v[1] for v in victims], [v[2] for v in victims]]
                deleted_store = store.delete_many(vkeys, vcols)
                deleted_ref = reference.delete_many(vkeys, vcols)
                assert (deleted_store == deleted_ref).all()
                assert deleted_store.all()
                live.difference_update((int(k), c, int(s)) for k, c, s in zip(vkeys, *vcols))

            if round_index % 5 == 4:
                store.compact()
            check()

        store.compact()
        check()

    def test_shard_count_is_membership_invariant(self):
        keys = np.arange(2000, dtype=np.int64)
        columns = row_columns(keys)
        answers = []
        for shards in (1, 2, 8):
            store = make_store(num_shards=shards)
            store.insert_many(keys, columns)
            probe = np.arange(0, 4000, dtype=np.int64)
            answers.append(store.query_many(probe))
        assert (answers[0] == answers[1]).all()
        assert (answers[0] == answers[2]).all()


class TestDeleteRouting:
    def test_delete_removes_exact_row_only(self):
        store = make_store(num_shards=1)
        key = 77
        store.insert(key, ("red", 1))
        store.insert(key, ("blue", 2))
        assert store.delete(key, ("red", 1))
        assert not store.query(key, Eq("color", "red"))
        assert store.query(key, Eq("color", "blue"))
        assert not store.delete(key, ("red", 1))  # already gone

    def test_delete_routes_to_owning_level(self):
        store = make_store(num_shards=1, target_load=0.5)
        shard = store.shards[0]
        key = 1234
        store.insert(key, ("red", 5))
        owner = shard.levels[-1]
        # Force level rolls so the owning level is sealed and buried.
        filler = np.arange(10**5, 10**5 + shard.config.level_buckets * 2, dtype=np.int64)
        while len(shard.levels) == 1:
            store.insert_many(filler, row_columns(filler))
            filler = filler + len(filler)
        assert shard.levels[-1] is not owner
        store.insert(key, ("blue", 6))  # same key, different row, newest level
        # The delete must route past the newest levels to the sealed owner.
        assert store.delete(key, ("red", 5))
        assert not store.query(key, Eq("color", "red"))
        assert store.query(key, Eq("color", "blue"))

    def test_reinsert_after_level_roll_does_not_duplicate(self):
        """Cross-level dedup: the stack stores one entry per distinct row."""
        store = make_store(num_shards=1, target_load=0.5)
        shard = store.shards[0]
        key = 4321
        store.insert(key, ("green", 9))
        filler = np.arange(2 * 10**5, 2 * 10**5 + shard.config.level_buckets * 2, dtype=np.int64)
        while len(shard.levels) == 1:
            store.insert_many(filler, row_columns(filler))
            filler = filler + len(filler)
        entries_before = store.num_entries
        store.insert(key, ("green", 9))  # already owned by a sealed level
        assert store.num_entries == entries_before
        # One delete therefore removes the row from the store entirely.
        assert store.delete(key, ("green", 9))
        assert not store.query(key)
        assert not store.delete(key, ("green", 9))

    @staticmethod
    def _stash_false_negatives(seed: int, compact: bool) -> list[int]:
        """Live keys answering False while one-at-a-time deletes drain a
        tiny single-shard store whose levels stash; keys that share a
        (fingerprint, pair) with a deleted key are exempt (they shared its
        entry)."""
        params = CCFParams(key_bits=8, attr_bits=4, bucket_size=2, max_kicks=20, seed=seed)
        config = StoreConfig(num_shards=1, level_buckets=16, target_load=0.95)
        store = FilterStore(AttributeSchema(["a"]), params, config)
        keys = np.arange(60, dtype=np.int64)
        zeros = np.zeros(len(keys), dtype=np.int64)
        store.insert_many(keys, [zeros])
        if compact:
            store.compact()
        fps = store.geometry.fingerprints_of_many(keys)
        homes = store.geometry.home_indices_of_many(keys)
        pairs = np.minimum(homes, store.geometry.alt_indices_many(homes, fps))
        lost: set[int] = set()
        for deleted in range(len(keys)):
            store.delete_many(keys[deleted : deleted + 1], [zeros[:1]])
            gone = {(int(fps[k]), int(pairs[k])) for k in range(deleted + 1)}
            live = [
                k for k in range(deleted + 1, len(keys)) if (int(fps[k]), int(pairs[k])) not in gone
            ]
            answers = store.contains_key_many(keys[live])
            lost.update(k for k, answer in zip(live, answers.tolist()) if not answer)
        return sorted(lost)

    @pytest.mark.parametrize("compact", [False, True], ids=["levels", "compacted"])
    def test_deletes_keep_rows_that_depend_on_the_stash(self, compact):
        """A stashed entry is a slot of its own pair: a delete removes the
        stashed copy of its own (fingerprint, pair, vector) row only, and
        compaction dedups stash rows by pair, so no live row loses the one
        entry it depends on."""
        failing = {}
        for seed in range(60):
            lost = self._stash_false_negatives(seed, compact)
            if lost:
                failing[seed] = lost
        assert not failing, f"live keys answered False (seed: keys): {failing}"

    def test_chained_kind_is_rejected(self, tmp_path):
        """Stores hold plain levels only: a manifest of another kind neither
        opens nor refreshes (building one is refused earlier, by
        `build_filter_bundle`; see test_reduction)."""
        root = make_store().snapshot(tmp_path / "snap")
        manifest = root / "manifest.json"
        manifest.write_text(
            manifest.read_text().replace('"kind": "plain"', '"kind": "chained"')
        )
        with pytest.raises(SerializeError, match="plain"):
            FilterStore.open(root)
        with pytest.raises(SerializeError, match="plain"):
            make_store().refresh(root)


class TestPersistence:
    def test_snapshot_open_round_trip(self, tmp_path):
        store = make_store()
        keys = np.arange(3000, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        store.delete_many(keys[:100], row_columns(keys[:100]))
        root = store.snapshot(tmp_path / "snap")
        assert (root / "manifest.json").exists()
        assert len(list(root.glob("*.seg"))) == store.num_levels

        reopened = FilterStore.open(root)
        assert len(reopened) == len(store)
        assert reopened.num_levels == store.num_levels
        probe = np.arange(0, 6000, dtype=np.int64)
        compiled = Eq("color", "green")
        assert (reopened.query_many(probe) == store.query_many(probe)).all()
        assert (
            reopened.query_many(probe, compiled) == store.query_many(probe, compiled)
        ).all()
        # The reopened store keeps serving mutations.
        extra = np.arange(10**6, 10**6 + 500, dtype=np.int64)
        reopened.insert_many(extra, row_columns(extra))
        assert reopened.query_many(extra).all()

    def test_snapshot_after_compaction(self, tmp_path):
        store = make_store(num_shards=2)
        keys = np.arange(2500, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        store.compact()
        reopened = FilterStore.open(store.snapshot(tmp_path / "snap"))
        assert reopened.num_levels == 2
        assert reopened.query_many(keys).all()

    def test_manifest_format_guard(self, tmp_path):
        store = make_store()
        root = store.snapshot(tmp_path / "snap")
        manifest = root / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"format": 2', '"format": 99'))
        with pytest.raises(ValueError, match="manifest format"):
            FilterStore.open(root)


class TestStatsAndIntrospection:
    def test_stats_shape(self):
        store = make_store(num_shards=2, compact_at=4)
        keys = np.arange(2000, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        store.delete_many(keys[:50], row_columns(keys[:50]))
        stats = store.stats()
        assert stats["num_shards"] == 2
        assert stats["rows_inserted"] == 2000
        assert stats["rows_deleted"] == 50
        assert stats["levels"] == sum(s["levels"] for s in stats["shards"])
        assert stats["entries"] == store.num_entries
        for shard_stats in stats["shards"]:
            assert len(shard_stats["level_loads"]) == shard_stats["levels"]
        assert 0.0 < store.load_factor() <= 1.0
        assert "load=" in repr(store)
        assert "load=" in repr(store.shards[0])

    def test_shard_routing_is_a_partition(self):
        store = make_store(num_shards=8)
        keys = np.arange(5000, dtype=np.int64)
        ids = store.shard_ids_of_many(keys)
        assert ids.min() >= 0 and ids.max() < 8
        scalar = np.array([store.shard_of(int(k)) for k in keys[:200]])
        assert (ids[:200] == scalar).all()

    def test_compaction_right_sizes_buckets(self):
        """Compaction packs a tall stack into taller buckets near target load."""
        store = make_store(num_shards=1, target_load=0.8)
        keys = np.arange(5 * store.config.level_buckets * PARAMS.bucket_size, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        levels_before = store.num_levels
        capacity_before = store.shards[0].capacity
        store.compact()
        merged = store.shards[0].levels[0]
        assert levels_before > 1
        assert merged.buckets.bucket_size > PARAMS.bucket_size
        assert merged.buckets.capacity < capacity_before
        assert merged.load_factor() <= store.config.target_load + 0.05
        store.shards[0].levels[0].check_invariants()


class TestOpCounters:
    def test_ops_track_batches_and_keys(self):
        store = make_store(num_shards=2)
        keys = np.arange(600, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        store.query_many(keys)
        store.query_many(keys[:100])
        store.delete_many(keys[:30], row_columns(keys[:30]))
        ops = store.stats()["ops"]
        assert ops["insert_calls"] == 1 and ops["insert_keys"] == 600
        assert ops["query_calls"] == 2 and ops["query_keys"] == 700
        assert ops["delete_calls"] == 1 and ops["delete_keys"] == 30

    def test_ops_survive_snapshot_round_trip(self, tmp_path):
        store = make_store(num_shards=2)
        keys = np.arange(500, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        store.query_many(keys)
        reopened = FilterStore.open(store.snapshot(tmp_path / "snap"))
        ops = reopened.stats()["ops"]
        assert ops["insert_keys"] == 500
        assert ops["query_keys"] == 500
        # ...and keep counting in the reopened store.
        reopened.query_many(keys[:10])
        assert reopened.stats()["ops"]["query_calls"] == 2


class TestGenerationsAndRefresh:
    def test_generation_advances_on_mutation(self):
        store = make_store(num_shards=2)
        g0 = store.generation
        keys = np.arange(400, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        g1 = store.generation
        assert g1 > g0
        store.query_many(keys)
        assert store.generation == g1  # reads don't bump
        store.compact()
        assert store.generation > g1

    def test_refresh_counts_reused_and_attached(self, tmp_path):
        writer = make_store(num_shards=2)
        keys = np.arange(2000, dtype=np.int64)
        writer.insert_many(keys, row_columns(keys))
        reader = FilterStore.open(writer.snapshot(tmp_path / "e1"))
        reader.query_many(keys)  # materialise

        more = np.arange(10**5, 10**5 + 100, dtype=np.int64)
        writer.insert_many(more, row_columns(more))
        result = reader.refresh(writer.snapshot(tmp_path / "e2"))
        # Only the active levels changed; the full ones are reused.
        assert result["levels_reused"] >= 1
        assert result["levels_attached"] >= 1
        assert result["levels_attached"] <= 2 * writer.config.num_shards
        assert reader.query_many(keys).all()
        assert reader.query_many(more).all()
        assert len(reader) == len(writer)

    def test_refresh_noop_when_nothing_changed(self, tmp_path):
        writer = make_store(num_shards=2)
        keys = np.arange(1000, dtype=np.int64)
        writer.insert_many(keys, row_columns(keys))
        reader = FilterStore.open(writer.snapshot(tmp_path / "e1"))
        reader.query_many(keys)
        result = reader.refresh(writer.snapshot(tmp_path / "e2"))
        assert result["levels_attached"] == 0
        assert result["levels_reused"] == reader.num_levels

    def test_warm_returns_mapped_bytes(self, tmp_path):
        store = make_store(num_shards=2)
        keys = np.arange(1500, dtype=np.int64)
        store.insert_many(keys, row_columns(keys))
        assert store.warm() == 0  # in-memory store: nothing mapped
        mapped = FilterStore.open(store.snapshot(tmp_path / "snap"))
        mapped.query_many(keys[:1])  # materialise the lazy levels
        assert mapped.warm() > 0
        assert mapped.query_many(keys).all()
