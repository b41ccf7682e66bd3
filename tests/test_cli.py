"""Tests for the ``python -m repro.bench`` experiment runner and the
``python -m repro.store`` snapshot tooling."""

import numpy as np
import pytest

from repro.bench.__main__ import EXPERIMENTS, main
from repro.ccf.attributes import AttributeSchema
from repro.ccf.params import CCFParams
from repro.store import FilterStore, StoreConfig
from repro.store.__main__ import main as store_main


class TestCLI:
    def test_experiment_registry(self):
        assert {"fig2", "fig4", "fig5", "table1", "joblight"} == set(EXPERIMENTS)

    def test_table1_runs(self, capsys, tmp_path, monkeypatch):
        import repro.bench.reporting as reporting

        monkeypatch.setattr(reporting, "RESULTS_DIR", tmp_path)
        main(["--only", "table1"])
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "chained" in out
        assert (tmp_path / "table1_sizing_bounds.json").exists()

    def test_fig4_respects_runs_flag(self, capsys, tmp_path, monkeypatch):
        import repro.bench.reporting as reporting
        import repro.bench.__main__ as cli

        monkeypatch.setattr(reporting, "RESULTS_DIR", tmp_path)
        calls = {}

        def fake_run_figure4(runs):
            calls["runs"] = runs
            return []

        monkeypatch.setattr(cli, "run_figure4", lambda runs: fake_run_figure4(runs))
        main(["--only", "fig4", "--runs", "2"])
        assert calls["runs"] == 2

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    def test_invalid_flag_errors(self):
        with pytest.raises(SystemExit):
            main(["--nope"])


class TestStoreInspectCLI:
    """``python -m repro.store inspect <path>``: manifest + per-level table."""

    def _snapshot(self, tmp_path):
        schema = AttributeSchema(["color", "size"])
        params = CCFParams(key_bits=20, attr_bits=8, bucket_size=4, seed=5)
        store = FilterStore(
            schema, params, StoreConfig(num_shards=2, level_buckets=64, target_load=0.8)
        )
        keys = np.arange(1200, dtype=np.int64)
        colors = np.array(["red", "green", "blue"], dtype=object)[keys % 3]
        store.insert_many(keys, [colors, keys % 7])
        return store, store.snapshot(tmp_path / "snap")

    def test_inspect_segment_snapshot(self, capsys, tmp_path):
        store, root = self._snapshot(tmp_path)
        assert store_main(["inspect", str(root)]) == 0
        out = capsys.readouterr().out
        assert "manifest format 2" in out
        assert "kind=plain" in out
        assert "num_shards=2" in out
        assert out.count("[segment]") == store.num_levels
        assert "64x4 slots" in out          # per-level geometry
        assert "dtype=uint32" in out        # 20-bit keys pack into uint32
        assert "load=0." in out             # real occupancy from the counts column
        assert f"total: {store.num_levels} levels" in out

    def test_inspect_reports_op_counters(self, capsys, tmp_path):
        store, _root = self._snapshot(tmp_path)
        store.query_many(np.arange(400, dtype=np.int64))
        root = store.snapshot(tmp_path / "snap2")
        assert store_main(["inspect", str(root)]) == 0
        out = capsys.readouterr().out
        assert "ops: queries=1 (400 keys) inserts=1 (1200 keys)" in out

    def test_inspect_reports_slow_ops_none(self, capsys, tmp_path):
        from repro import obs

        obs.SLOW_OPS.clear()
        _store, root = self._snapshot(tmp_path)
        assert store_main(["inspect", str(root)]) == 0
        assert "slow ops: none" in capsys.readouterr().out

    def test_inspect_reports_slow_ops_worst(self, capsys, tmp_path):
        from repro import obs

        obs.SLOW_OPS.clear()
        obs.SLOW_OPS.offer("t1", "acme", 1500.0, {"dispatch": 1200.0})
        try:
            _store, root = self._snapshot(tmp_path)
            assert store_main(["inspect", str(root)]) == 0
            out = capsys.readouterr().out
            assert "slow ops: 1 seen, 1 kept, worst=1500us" in out
            assert "stage=dispatch tenant=acme" in out
        finally:
            obs.SLOW_OPS.clear()

    def test_inspect_missing_manifest(self, capsys, tmp_path):
        assert store_main(["inspect", str(tmp_path)]) == 1
        assert "manifest.json" in capsys.readouterr().out

    def test_inspect_corrupt_level_payload(self, capsys, tmp_path):
        _store, root = self._snapshot(tmp_path)
        victim = sorted(root.glob("*.seg"))[0]
        victim.write_bytes(victim.read_bytes()[:40])
        assert store_main(["inspect", str(root)]) == 1
        assert "UNREADABLE" in capsys.readouterr().out

    def test_inspect_reports_shard_memory(self, capsys, tmp_path):
        store, root = self._snapshot(tmp_path)
        assert store_main(["inspect", str(root)]) == 0
        out = capsys.readouterr().out
        memory_lines = [
            line.strip() for line in out.splitlines() if "memory:" in line
        ]
        assert len(memory_lines) == 2  # one compact line per shard
        for line in memory_lines:
            assert line.startswith("memory: mapped=")
            assert "resident=" in line and line.endswith("bytes")
        # Segment snapshots serve mmap'd: all column bytes are mapped.
        assert all("resident=0 bytes" in line for line in memory_lines)

    def test_unknown_subcommand_errors(self):
        with pytest.raises(SystemExit):
            store_main(["frobnicate"])

    def test_inspect_snapshot_reports_no_durability(self, capsys, tmp_path):
        _store, root = self._snapshot(tmp_path)
        assert store_main(["inspect", str(root)]) == 0
        out = capsys.readouterr().out
        assert "durability: none (snapshot-only)" in out
        assert "wal:" not in out


class TestStoreInspectDurableCLI:
    """Durable roots: the store-level durability line + per-shard WAL lines."""

    def _durable(self, tmp_path, num_keys=600):
        from repro.store import DurabilityConfig

        schema = AttributeSchema(["color", "size"])
        params = CCFParams(key_bits=20, attr_bits=8, bucket_size=4, seed=5)
        store = FilterStore(
            schema, params, StoreConfig(num_shards=2, level_buckets=64, target_load=0.8)
        )
        root = tmp_path / "store"
        store.attach_wal(root, DurabilityConfig(fsync="batch"))
        keys = np.arange(num_keys, dtype=np.int64)
        colors = np.array(["red", "green", "blue"], dtype=object)[keys % 3]
        store.insert_many(keys, [colors, keys % 7])
        return store, root

    def test_inspect_reports_durability_and_wal_lines(self, capsys, tmp_path):
        store, root = self._durable(tmp_path)
        # Scanning is read-only, so inspecting the *live* store is safe.
        assert store_main(["inspect", str(root)]) == 0
        out = capsys.readouterr().out
        assert "durability: fsync=batch gen=1" in out
        assert "flush_bytes=" in out and "roll_bytes=" in out
        wal_lines = [l.strip() for l in out.splitlines() if l.strip().startswith("wal:")]
        assert len(wal_lines) == 2  # one per shard
        for line in wal_lines:
            assert "frames=" in line and "rows=" in line
            assert "last_seq=" in line
            assert line.endswith("tail=clean")
        # The scanned shapes agree with the live writer's own accounting.
        total_rows = sum(
            int(line.split("rows=")[1].split()[0]) for line in wal_lines
        )
        assert total_rows == 600
        store.close()

    def test_inspect_classifies_torn_tail(self, capsys, tmp_path):
        store, root = self._durable(tmp_path)
        store.close()
        victim = sorted((root / "wal").glob("*.wal"))[0]
        victim.write_bytes(victim.read_bytes() + b"\x55" * 9)  # torn garbage
        assert store_main(["inspect", str(root)]) == 0
        out = capsys.readouterr().out
        assert "tail=torn" in out
        assert "9 bytes would truncate" in out
        # Read-only: the file still holds the garbage for recovery to fix.
        assert victim.read_bytes().endswith(b"\x55" * 9)

    def test_inspect_flags_missing_wal(self, capsys, tmp_path):
        store, root = self._durable(tmp_path)
        store.close()
        sorted((root / "wal").glob("*.wal"))[0].unlink()
        assert store_main(["inspect", str(root)]) == 0
        out = capsys.readouterr().out
        assert "MISSING (recovery would fail)" in out


class TestStoreMetricsCLI:
    """``python -m repro.store metrics <path>``: the scrape surface."""

    def _snapshot(self, tmp_path):
        schema = AttributeSchema(["color", "size"])
        params = CCFParams(key_bits=20, attr_bits=8, bucket_size=4, seed=5)
        store = FilterStore(
            schema, params, StoreConfig(num_shards=2, level_buckets=64)
        )
        keys = np.arange(900, dtype=np.int64)
        colors = np.array(["red", "green", "blue"], dtype=object)[keys % 3]
        store.insert_many(keys, [colors, keys % 7])
        return store.snapshot(tmp_path / "snap")

    def test_metrics_prometheus_output(self, capsys, tmp_path):
        from repro import obs

        root = self._snapshot(tmp_path)
        assert store_main(["metrics", str(root)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_store_ops_total counter" in out
        assert "# TYPE repro_store_entries gauge" in out
        parsed = obs.parse_prometheus(out)
        assert obs.validate_snapshot(parsed) == []
        entries = sum(
            s["value"] for s in parsed["repro_store_entries"]["samples"]
        )
        assert entries == 900
        ops = {
            (s["labels"]["op"], s["labels"]["unit"]): s["value"]
            for s in parsed["repro_store_ops_total"]["samples"]
        }
        assert ops[("insert", "keys")] == 900  # manifest-restored lifetime ops

    def test_metrics_json_output(self, capsys, tmp_path):
        from repro import obs

        root = self._snapshot(tmp_path)
        assert store_main(["metrics", str(root), "--format", "json"]) == 0
        parsed = obs.from_json(capsys.readouterr().out)
        assert obs.validate_snapshot(parsed) == []
        assert "repro_store_size_bytes" in parsed

    def test_metrics_missing_manifest(self, capsys, tmp_path):
        assert store_main(["metrics", str(tmp_path)]) == 1
        assert "manifest.json" in capsys.readouterr().out
