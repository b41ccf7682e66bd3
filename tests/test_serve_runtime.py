"""ServeRuntime end-to-end: writer + epoch publishing + pool + front end."""

from __future__ import annotations

import asyncio
import sys

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Eq
from repro.serve import ServeRuntime
from repro.serve.runtime import EPOCH_DIR_FORMAT
from repro.store import FilterStore, StoreConfig

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(key_bits=24, attr_bits=16, bucket_size=4, seed=23)
COLORS = ("red", "green", "blue")


def row_columns(keys: np.ndarray) -> list:
    colors = np.array(COLORS, dtype=object)[keys % 3]
    return [colors, keys % 11]


def make_runtime(tmp_path, **overrides) -> tuple[ServeRuntime, np.ndarray]:
    store = FilterStore(SCHEMA, PARAMS, StoreConfig(num_shards=2, level_buckets=64))
    keys = np.arange(1000, dtype=np.int64)
    assert store.insert_many(keys, row_columns(keys)).all()
    defaults = dict(
        num_workers=2,
        mode="thread",
        predicates={"red": Eq("color", "red")},
        warm=False,
    )
    defaults.update(overrides)
    return ServeRuntime(store, tmp_path / "epochs", **defaults), keys


class TestLifecycle:
    def test_start_publishes_epoch_one_and_serves(self, tmp_path):
        runtime, keys = make_runtime(tmp_path)
        with runtime:
            assert runtime.epoch == 1
            assert (tmp_path / "epochs" / EPOCH_DIR_FORMAT.format(epoch=1)).exists()
            assert runtime.query_many(keys).all()
            np.testing.assert_array_equal(
                runtime.query_many(keys, "red"), keys % 3 == 0
            )
        assert runtime.pool is None  # closed

    def test_double_start_rejected(self, tmp_path):
        runtime, _ = make_runtime(tmp_path)
        with runtime:
            with pytest.raises(RuntimeError, match="already started"):
                runtime.start()

    @pytest.mark.parametrize("before", [0.005, 0.0005])
    def test_switch_interval_lowered_while_started(self, tmp_path, before):
        """start() lowers the interpreter switch interval to at most 1 ms
        (never raising a smaller one); close() restores the value start()
        found."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(before)
        try:
            runtime, _ = make_runtime(tmp_path)
            with runtime:
                assert sys.getswitchinterval() == pytest.approx(min(before, 0.001))
            assert sys.getswitchinterval() == pytest.approx(before)
        finally:
            sys.setswitchinterval(previous)

    def test_unknown_predicate_rejected(self, tmp_path):
        runtime, keys = make_runtime(tmp_path)
        with runtime:
            with pytest.raises(KeyError, match="unknown predicate"):
                runtime.query_many(keys[:5], "nope")


class TestWritePath:
    def test_pool_reads_are_epoch_consistent_fresh_reads_are_not(self, tmp_path):
        runtime, keys = make_runtime(tmp_path)
        new_keys = np.arange(50_000, 50_300, dtype=np.int64)
        with runtime:
            assert runtime.insert_many(new_keys, row_columns(new_keys)).all()
            # Pool still serves epoch 1; the writer sees its own writes.
            assert not runtime.query_many(new_keys).any()
            assert runtime.query_many(new_keys, fresh=True).all()
            runtime.publish()
            assert runtime.epoch == 2
            assert runtime.query_many(new_keys).all()
            assert runtime.query_many(keys).all()

    def test_delete_then_publish(self, tmp_path):
        runtime, keys = make_runtime(tmp_path)
        victims = keys[:100]
        with runtime:
            assert runtime.delete_many(victims, row_columns(victims)).all()
            runtime.publish()
            assert not runtime.query_many(victims).any()
            assert runtime.query_many(keys[100:]).all()

    def test_publish_survives_compaction(self, tmp_path):
        runtime, keys = make_runtime(tmp_path)
        more = np.arange(2000, 4000, dtype=np.int64)
        with runtime:
            runtime.insert_many(more, row_columns(more))
            runtime.compact()
            runtime.publish()
            assert runtime.query_many(keys).all()
            assert runtime.query_many(more).all()

    def test_old_epochs_pruned_pool_keeps_serving(self, tmp_path):
        runtime, keys = make_runtime(tmp_path, keep_epochs=1)
        with runtime:
            runtime.query_many(keys[:50])  # materialise worker mappings
            for _ in range(3):
                runtime.publish()
            root = tmp_path / "epochs"
            remaining = sorted(p.name for p in root.iterdir())
            assert remaining == [EPOCH_DIR_FORMAT.format(epoch=4)]
            assert runtime.query_many(keys).all()


class TestFrontEnd:
    def test_frontend_over_runtime(self, tmp_path):
        runtime, keys = make_runtime(tmp_path)

        async def scenario():
            frontend = runtime.frontend(tick_seconds=0.005)
            probes = [int(k) for k in keys[:200]]
            hits, reds = await asyncio.gather(
                asyncio.gather(*(frontend.query(k) for k in probes)),
                frontend.query_many(keys[:200], "red"),
            )
            frontend.close()
            return hits, reds, frontend.stats()

        with runtime:
            hits, reds, stats = asyncio.run(scenario())
        assert all(hits)
        np.testing.assert_array_equal(reds, keys[:200] % 3 == 0)
        assert stats["flushes"] < stats["requests"]


class TestStats:
    def test_stats_endpoint_shape(self, tmp_path):
        runtime, keys = make_runtime(tmp_path)
        with runtime:
            runtime.query_many(keys[:100])
            runtime.query_many(keys[:10], fresh=True)
            stats = runtime.stats()
        assert stats["epoch"] == 1
        assert stats["mode"] == "thread"
        assert stats["num_workers"] == 2
        assert stats["pool"]["batches"] >= 1
        # The writer's op counters track only what the writer served: the
        # initial load (1 insert batch) plus the fresh read.
        writer_ops = stats["writer"]["ops"]
        assert writer_ops["insert_calls"] == 1
        assert writer_ops["query_calls"] == 1
        assert writer_ops["query_keys"] == 10

    def test_process_mode_smoke(self, tmp_path):
        runtime, keys = make_runtime(tmp_path, mode="process", num_workers=2)
        with runtime:
            assert runtime.query_many(keys).all()
            np.testing.assert_array_equal(
                runtime.query_many(keys, "red"), keys % 3 == 0
            )
            new_keys = np.arange(70_000, 70_200, dtype=np.int64)
            runtime.insert_many(new_keys, row_columns(new_keys))
            runtime.publish()
            assert runtime.query_many(new_keys).all()
            assert runtime.stats()["pool"]["mode"] == "process"
