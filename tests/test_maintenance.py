"""Budgeted maintenance: incremental compaction, WAL rolls, serve cadence.

The scheduler contract (DESIGN.md §14): each ``step()`` retires at most one
bounded unit of debt — ONE shard's compaction under that shard's write lock,
or one checkpoint when a WAL passes its roll threshold — so no call ever
stops the world, and ``run(max_steps)`` converges to a no-debt state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.params import CCFParams
from repro.serve.runtime import ServeRuntime
from repro.store import (
    DurabilityConfig,
    FilterStore,
    MaintenancePolicy,
    MaintenanceScheduler,
    StoreConfig,
    faults,
)
from repro.store.faults import InjectedFault

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(key_bits=24, attr_bits=16, bucket_size=4, seed=23)
COLORS = ("red", "green", "blue")


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()
    yield
    faults.reset()


def make_durable(root, **durability) -> FilterStore:
    store = FilterStore(
        SCHEMA, PARAMS, StoreConfig(num_shards=2, level_buckets=64, target_load=0.8)
    )
    store.attach_wal(root, DurabilityConfig(fsync="never", **durability))
    return store


def columns(keys: np.ndarray) -> list:
    return [np.array(COLORS, dtype=object)[keys % 3], keys % 11]


def fill(store: FilterStore, n: int, start: int = 0) -> np.ndarray:
    keys = np.arange(start, start + n, dtype=np.int64)
    assert store.insert_many(keys, columns(keys)).all()
    return keys


class TestPolicy:
    def test_defaults_are_valid(self):
        policy = MaintenancePolicy()
        assert policy.compact_levels == 4
        assert policy.seal_rows is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"compact_levels": 1},
            {"seal_rows": 0},
        ],
    )
    def test_invalid_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MaintenancePolicy(**kwargs)

    def test_requires_durable_store(self):
        store = FilterStore(SCHEMA, PARAMS, StoreConfig(num_shards=2))
        with pytest.raises(ValueError, match="attach_wal"):
            MaintenanceScheduler(store)


class TestSteps:
    def test_no_debt_means_no_step(self, tmp_path):
        store = make_durable(tmp_path / "store")
        sched = MaintenanceScheduler(store)
        assert sched.pending() == []
        assert sched.step() is None
        assert sched.steps_run == 0
        store.close()

    def test_compact_step_retires_one_shard(self, tmp_path):
        store = make_durable(tmp_path / "store")
        # ~4 levels per shard: well past a compact_levels=2 policy.
        fill(store, 2000)
        sched = MaintenanceScheduler(store, MaintenancePolicy(compact_levels=2))
        assert "compact" in sched.pending()
        depths = [shard.num_levels for shard in store.shards]
        assert sched.step() == "compact"
        after = [shard.num_levels for shard in store.shards]
        # Exactly one shard merged (the deepest), the other untouched.
        assert sum(1 for d0, d1 in zip(depths, after) if d1 < d0) == 1
        assert sum(1 for d0, d1 in zip(depths, after) if d1 == d0) == 1
        store.close()

    def test_checkpoint_step_rolls_wals_on_bytes(self, tmp_path):
        store = make_durable(tmp_path / "store", roll_bytes=1)
        fill(store, 200)
        sched = MaintenanceScheduler(store, MaintenancePolicy(compact_levels=64))
        assert sched.pending() == ["checkpoint"]
        assert sched.step() == "checkpoint"
        assert store._wal_gen == 2
        assert all(shard.wal.num_frames == 0 for shard in store.shards)
        store.close()

    def test_seal_rows_triggers_without_byte_debt(self, tmp_path):
        store = make_durable(tmp_path / "store", roll_bytes=1 << 30)
        fill(store, 64)
        sched = MaintenanceScheduler(
            store, MaintenancePolicy(compact_levels=64, seal_rows=16)
        )
        assert sched.pending() == ["checkpoint"]
        assert sched.step() == "checkpoint"
        assert sched.step() is None  # debt retired; rows reset with the roll
        store.close()

    def test_roll_bytes_defaults_to_durability_config(self, tmp_path):
        store = make_durable(tmp_path / "store", roll_bytes=1)
        fill(store, 64)
        sched = MaintenanceScheduler(store, MaintenancePolicy(compact_levels=64))
        assert sched.pending() == ["checkpoint"]
        store.close()

    def test_run_compacts_before_checkpointing(self, tmp_path):
        """Merging first makes the seal smaller: one segment per shard
        instead of one per level of the pre-compaction stack."""
        store = make_durable(tmp_path / "store", roll_bytes=1)
        fill(store, 2000)
        sched = MaintenanceScheduler(store, MaintenancePolicy(compact_levels=2))
        executed = sched.run()
        assert executed[-1] == "checkpoint"
        assert set(executed[:-1]) == {"compact"}
        assert len([k for k in executed if k == "compact"]) == 2  # one per shard
        assert sched.pending() == []
        assert sched.steps_run == len(executed)
        store.close()

    def test_run_respects_budget(self, tmp_path):
        store = make_durable(tmp_path / "store", roll_bytes=1)
        fill(store, 2000)
        sched = MaintenanceScheduler(store, MaintenancePolicy(compact_levels=2))
        assert len(sched.run(max_steps=1)) == 1
        assert sched.pending()  # debt remains; the next call continues
        store.close()

    def test_compaction_logs_a_frame_for_replay(self, tmp_path):
        """A scheduler-driven compaction must reach recovery the same way an
        explicit compact() does: via an OP_COMPACT frame."""
        from tests.test_crash_recovery import abandon

        root = tmp_path / "store"
        store = make_durable(root, roll_bytes=1 << 30)
        keys = fill(store, 2000)
        sched = MaintenanceScheduler(store, MaintenancePolicy(compact_levels=2))
        while sched.step() == "compact":
            pass
        abandon(store)
        recovered = FilterStore.open(root)
        assert recovered.query_many(keys).all()
        # Replay re-ran the merges: the recovered stacks are as shallow as
        # the maintained ones were.
        assert recovered.num_levels == store.num_levels
        abandon(recovered)

    def test_write_poisoned_store_is_not_compacted(self, tmp_path):
        """After a checkpoint dies part-way the WAL handles are closed, so a
        compaction could not be logged: the scheduler refuses it, as
        `compact()` does."""
        store = make_durable(tmp_path / "store")
        fill(store, 2000)
        faults.arm("checkpoint.staged")
        with pytest.raises(InjectedFault):
            store.checkpoint()
        faults.reset()
        sched = MaintenanceScheduler(store, MaintenancePolicy(compact_levels=2))
        levels = store.num_levels
        assert "compact" in sched.pending()
        with pytest.raises(RuntimeError, match="poisoned"):
            sched.step()
        assert store.num_levels == levels
        with pytest.raises(RuntimeError, match="poisoned"):
            store.compact()
        assert store.num_levels == levels

    def test_mid_maintenance_crash_recovers(self, tmp_path):
        from tests.test_crash_recovery import abandon

        root = tmp_path / "store"
        store = make_durable(root, roll_bytes=1)
        keys = fill(store, 2000)
        sched = MaintenanceScheduler(store, MaintenancePolicy(compact_levels=2))
        faults.arm("checkpoint.segment", 2)  # die sealing the second level
        with pytest.raises(InjectedFault):
            sched.run()
        faults.reset()
        abandon(store)
        recovered = FilterStore.open(root)
        assert recovered.query_many(keys).all()
        abandon(recovered)


class TestServeIntegration:
    def test_publish_runs_installed_maintenance(self, tmp_path):
        store = make_durable(tmp_path / "store", roll_bytes=1)
        fill(store, 200)
        runtime = ServeRuntime(store, tmp_path / "epochs", warm=False)
        sched = MaintenanceScheduler(store, MaintenancePolicy(compact_levels=64))
        runtime.install_maintenance(sched, steps_per_publish=4)
        runtime.publish()
        assert sched.steps_run >= 1
        assert store._wal_gen == 2  # the roll rode the publish cadence
        # Epoch snapshots stay plain: read-only replicas must never adopt
        # the writer's log.
        manifest = (tmp_path / "epochs" / "epoch-000001" / "manifest.json").read_text()
        assert '"wal"' not in manifest
        store.close()

    def test_install_rejects_foreign_store(self, tmp_path):
        store = make_durable(tmp_path / "a")
        other = make_durable(tmp_path / "b")
        runtime = ServeRuntime(store, tmp_path / "epochs", warm=False)
        with pytest.raises(ValueError, match="this runtime's writer"):
            runtime.install_maintenance(MaintenanceScheduler(other))
        store.close()
        other.close()

    def test_runtime_stats_hoist_durability(self, tmp_path):
        store = make_durable(tmp_path / "store")
        runtime = ServeRuntime(store, tmp_path / "epochs", warm=False)
        stats = runtime.stats()
        assert stats["durability"]["fsync"] == "never"
        assert stats["durability"] == stats["writer"]["durability"]
        store.close()
