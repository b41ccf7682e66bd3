"""Crash-recovery property suite: kill at every fault point, recover, compare.

The durability contract (DESIGN.md §14): an acked batch — one whose
``insert_many``/``delete_many`` call returned — survives any crash, and a
reopened store answers exactly like an uninterrupted oracle that applied
the acked operations.  The suite enforces this *exhaustively*: one traced
run enumerates every injection-point crossing the standard workload
produces (WAL appends and fsyncs, torn writes, WAL rolls, every stage of
the checkpoint commit protocol, compaction frames), then the workload is
re-run once per (point, hit) pair with a simulated crash at exactly that
boundary, reopened, and checked for answer parity.

Keys of the one *in-flight* batch (the call that raised) are exempt from
parity — a multi-shard batch crashes with some shards logged and others
not, and either outcome is correct for un-acked rows — but every other key
in the universe must answer identically, so no acked frame can be silently
dropped and no retired frame can resurrect.

``REPRO_CRASH_SEEDS`` bounds how many workload variants the enumeration
covers (CI smoke runs 1; the default exercises 2).
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.mmapio import read_segment_meta
from repro.ccf.params import CCFParams
from repro.store import DurabilityConfig, FilterStore, StoreConfig, faults
from repro.store.faults import InjectedFault
from repro.store.store import MANIFEST_NAME
from repro.store.wal import scan_wal, wal_dir, wal_name

from tests.conftest import ccf_state

SCHEMA = AttributeSchema(["color", "size"])
#: Wide fingerprints so false positives cannot blur parity assertions.
PARAMS = CCFParams(key_bits=24, attr_bits=16, bucket_size=4, seed=23)
COLORS = ("red", "green", "blue")

#: fsync="always" in the property runs: every acked frame is synced, so the
#: process-crash model (abandon handles, reopen) matches the power-loss one.
DURABILITY = DurabilityConfig(fsync="always", flush_bytes=1 << 20, roll_bytes=1 << 30)


def crash_seeds() -> int:
    return int(os.environ.get("REPRO_CRASH_SEEDS", "2"))


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()
    yield
    faults.reset()


def make_store() -> FilterStore:
    return FilterStore(
        SCHEMA, PARAMS, StoreConfig(num_shards=2, level_buckets=64, target_load=0.8)
    )


def columns(keys: np.ndarray) -> list:
    return [np.array(COLORS, dtype=object)[keys % 3], keys % 11]


def ops_for(seed: int) -> list[tuple]:
    """The standard workload: inserts, deletes, an explicit compaction, a
    mid-stream checkpoint, and a post-checkpoint tail — so the kill
    schedule spans every protocol stage with acked frames on both sides."""
    base = seed * 10_000
    a = np.arange(base, base + 48, dtype=np.int64)
    b = np.arange(base + 48, base + 96, dtype=np.int64)
    c = np.arange(base + 96, base + 144, dtype=np.int64)
    d = np.arange(base + 144, base + 192, dtype=np.int64)
    return [
        ("insert", a),
        ("insert", b),
        ("delete", a[::2]),
        ("compact", None),
        ("insert", c),
        ("checkpoint", None),
        ("insert", d),
    ]


def universe_for(seed: int) -> np.ndarray:
    base = seed * 10_000
    present = np.arange(base, base + 192, dtype=np.int64)
    absent = np.arange(base + 5_000, base + 5_128, dtype=np.int64)
    return np.concatenate([present, absent])


def run_workload(root, seed: int):
    """Run the workload until completion or an injected crash.

    Returns ``(store, acked, inflight, fault)`` — ``acked`` the ops whose
    calls returned, ``inflight`` the op that raised (None if none did).
    """
    store = make_store()
    acked: list[tuple] = []
    inflight = ("attach", None)
    try:
        store.attach_wal(root, DURABILITY)
        for op in ops_for(seed):
            inflight = op
            kind, keys = op
            if kind == "insert":
                store.insert_many(keys, columns(keys))
            elif kind == "delete":
                store.delete_many(keys, columns(keys))
            elif kind == "compact":
                store.compact()
            else:
                store.checkpoint()
            acked.append(op)
        inflight = None
    except InjectedFault as fault:
        return store, acked, inflight, fault
    return store, acked, None, None


def abandon(store: FilterStore) -> None:
    """Drop the WAL handles without syncing — a crash-faithful exit.

    (`FilterStore.close` syncs first; a real crash doesn't get to.)
    """
    for shard in store.shards:
        if shard.wal is not None:
            shard.wal.close()
            shard.wal = None


def oracle_for(acked) -> FilterStore:
    """An uninterrupted (non-durable) store that applied only the acked ops."""
    store = make_store()
    for kind, keys in acked:
        if kind == "insert":
            store.insert_many(keys, columns(keys))
        elif kind == "delete":
            store.delete_many(keys, columns(keys))
        elif kind == "compact":
            store.compact()
        # checkpoint: answer-neutral
    return store


def assert_parity(recovered: FilterStore, acked, inflight, seed: int) -> None:
    oracle = oracle_for(acked)
    universe = universe_for(seed)
    exempt = np.zeros(len(universe), dtype=bool)
    if inflight is not None and inflight[1] is not None:
        exempt = np.isin(universe, inflight[1])
    got = recovered.query_many(universe)
    want = oracle.query_many(universe)
    mismatched = universe[(got != want) & ~exempt]
    assert mismatched.size == 0, (
        f"recovered store disagrees with the acked-ops oracle on keys "
        f"{mismatched[:10].tolist()} (inflight={None if inflight is None else inflight[0]})"
    )


class TestDurableLifecycle:
    def test_unclean_exit_replays_every_acked_frame(self, tmp_path):
        root = tmp_path / "store"
        store, acked, inflight, fault = run_workload(root, seed=0)
        assert fault is None and inflight is None
        abandon(store)  # no close(), no final checkpoint: pure WAL recovery
        recovered = FilterStore.open(root)
        assert recovered.durable
        assert_parity(recovered, acked, None, seed=0)
        # Counters replayed exactly (nothing was in flight).
        assert len(recovered) == len(store)
        assert recovered.num_entries == store.num_entries
        # The reopened store is the durable writer again: it keeps logging…
        extra = np.arange(90_000, 90_032, dtype=np.int64)
        assert recovered.insert_many(extra, columns(extra)).all()
        abandon(recovered)
        # …and those appends survive yet another crash.
        again = FilterStore.open(root)
        assert again.query_many(extra).all()
        abandon(again)

    def test_checkpoint_rolls_and_retires_wals(self, tmp_path):
        root = tmp_path / "store"
        store = make_store()
        store.attach_wal(root, DURABILITY)
        keys = np.arange(64, dtype=np.int64)
        store.insert_many(keys, columns(keys))
        assert sum(s.wal.num_frames for s in store.shards) > 0
        store.checkpoint()
        assert store._wal_gen == 2
        for shard in store.shards:
            assert shard.wal.gen == 2
            assert shard.wal.num_frames == 0
            # seq chains continue across generations — a retired frame's seq
            # can never be reused by a later generation.
            scan = scan_wal(shard.wal.path)
            assert scan.base_seq == shard.wal.base_seq > 0
        # Old-generation logs are gone; only gen-2 files remain.
        names = {p.name for p in wal_dir(root).glob("*.wal")}
        assert names == {wal_name(s.shard_id, 2) for s in store.shards}
        store.close()
        recovered = FilterStore.open(root)
        assert recovered.query_many(keys).all()
        abandon(recovered)

    def test_snapshot_onto_root_is_a_checkpoint(self, tmp_path):
        root = tmp_path / "store"
        store = make_store()
        store.attach_wal(root)
        keys = np.arange(32, dtype=np.int64)
        store.insert_many(keys, columns(keys))
        assert store.snapshot(root) == root.resolve()
        assert store._wal_gen == 2  # rolled, not staged-and-replaced
        assert wal_dir(root).is_dir()
        store.close()

    def test_refresh_is_refused_on_durable_stores(self, tmp_path):
        store = make_store()
        store.attach_wal(tmp_path / "store")
        with pytest.raises(RuntimeError, match="checkpoint"):
            store.refresh(tmp_path / "elsewhere")
        store.close()

    def test_closed_store_reopens_cleanly(self, tmp_path):
        root = tmp_path / "store"
        store = make_store()
        store.attach_wal(root, DurabilityConfig(fsync="never"))
        keys = np.arange(48, dtype=np.int64)
        store.insert_many(keys, columns(keys))
        store.close()  # syncs batch-mode bytes: a clean close loses nothing
        with pytest.raises(RuntimeError, match="poisoned"):
            store.insert_many(keys, columns(keys))
        recovered = FilterStore.open(root)
        assert recovered.query_many(keys).all()
        abandon(recovered)

    def test_double_attach_rejected(self, tmp_path):
        store = make_store()
        store.attach_wal(tmp_path / "a")
        with pytest.raises(RuntimeError, match="already attached"):
            store.attach_wal(tmp_path / "b")
        store.close()

    def test_stats_surface_durability(self, tmp_path):
        store = make_store()
        assert store.stats()["durability"] is None
        store.attach_wal(tmp_path / "store", DURABILITY)
        keys = np.arange(16, dtype=np.int64)
        store.insert_many(keys, columns(keys))
        posture = store.stats()["durability"]
        assert posture["fsync"] == "always"
        assert posture["gen"] == 1
        assert posture["wal_frames"] > 0
        assert posture["wal_bytes"] > 0
        store.close()


class TestReplayIsBitIdentical:
    def test_reopened_copy_equals_the_live_store_level_by_level(self, tmp_path):
        """Each level saves its victim-stream position (`num_kicks`), so a
        level checkpointed mid-stream and written on with kicks replays
        those kicks exactly: slot columns, stash and kick counts match."""
        root = tmp_path / "store"
        store = FilterStore(
            SCHEMA, PARAMS, StoreConfig(num_shards=1, level_buckets=64, target_load=0.95)
        )
        store.attach_wal(root, DURABILITY)
        head = np.arange(150, dtype=np.int64)
        store.insert_many(head, columns(head))
        store.checkpoint()
        kicks = store.shards[0].levels[0].num_kicks
        for start in range(150, 600, 90):
            keys = np.arange(start, start + 90, dtype=np.int64)
            store.insert_many(keys, columns(keys))
        assert store.shards[0].levels[0].num_kicks > kicks > 0
        shutil.copytree(root, tmp_path / "copy")
        recovered = FilterStore.open(tmp_path / "copy")
        for live, replayed in zip(store.shards, recovered.shards):
            assert len(replayed.levels) == len(live.levels) > 1
            for live_level, replayed_level in zip(live.levels, replayed.levels):
                assert ccf_state(replayed_level) == ccf_state(live_level)
        abandon(recovered)
        store.close()


class TestFailedCheckpointPoisonsWrites:
    def test_mid_checkpoint_crash_then_recovery(self, tmp_path):
        root = tmp_path / "store"
        store = make_store()
        store.attach_wal(root, DURABILITY)
        keys = np.arange(64, dtype=np.int64)
        store.insert_many(keys, columns(keys))
        faults.arm("checkpoint.staged")  # die before the manifest commit
        with pytest.raises(InjectedFault):
            store.checkpoint()
        faults.reset()
        # The survivor process must not keep acking writes it can't log.
        with pytest.raises(RuntimeError, match="poisoned"):
            store.insert_many(keys, columns(keys))
        with pytest.raises(RuntimeError, match="poisoned"):
            store.checkpoint()
        # Reopen recovers generation 1 — manifest never moved.
        recovered = FilterStore.open(root)
        assert recovered._wal_gen == 1
        assert recovered.query_many(keys).all()
        # Crashed-checkpoint debris (gen-2 WALs, unreferenced segments) is
        # reaped; the next checkpoint proceeds normally.
        assert {p.name for p in wal_dir(root).glob("*.wal")} == {
            wal_name(s.shard_id, 1) for s in recovered.shards
        }
        recovered.checkpoint()
        assert recovered._wal_gen == 2
        recovered.close()

    def test_crash_after_commit_point_keeps_new_generation(self, tmp_path):
        root = tmp_path / "store"
        store = make_store()
        store.attach_wal(root, DURABILITY)
        keys = np.arange(64, dtype=np.int64)
        store.insert_many(keys, columns(keys))
        faults.arm("checkpoint.committed")  # manifest replaced, then death
        with pytest.raises(InjectedFault):
            store.checkpoint()
        faults.reset()
        recovered = FilterStore.open(root)
        assert recovered._wal_gen == 2  # the replace won
        assert recovered.query_many(keys).all()
        for shard in recovered.shards:
            assert shard.wal.num_frames == 0  # sealed into the segments
        abandon(recovered)


class TestKillAtEveryFaultPoint:
    def test_exhaustive_kill_schedule(self, tmp_path):
        """Kill once at every (point, hit) the workload crosses; recover;
        require exact answer parity with the acked-ops oracle."""
        total = 0
        for seed in range(crash_seeds()):
            faults.reset()
            faults.trace(True)
            store, acked, inflight, fault = run_workload(
                tmp_path / f"trace-{seed}", seed
            )
            assert fault is None, "traced run must complete"
            schedule = faults.hit_counts()
            faults.reset()
            abandon(store)
            scenarios = [
                (point, hit)
                for point in sorted(schedule)
                for hit in range(1, schedule[point] + 1)
            ]
            # The schedule must span the whole protocol, not just appends.
            covered = {point for point, _ in scenarios}
            assert {
                "wal.create.staged",
                "wal.append.begin",
                "wal.append.torn",
                "wal.append.written",
                "wal.fsync",
                "checkpoint.begin",
                "checkpoint.walled",
                "checkpoint.segment",
                "checkpoint.staged",
                "checkpoint.committed",
            } <= covered
            for i, (point, hit) in enumerate(scenarios):
                root = tmp_path / f"s{seed}-{i:03d}"
                faults.arm(point, hit)
                store, acked, inflight, fault = run_workload(root, seed)
                faults.reset()
                abandon(store)
                assert fault is not None, (
                    f"deterministic workload must re-cross {point}@{hit}"
                )
                assert (fault.point, fault.hit) == (point, hit)
                if not (root / MANIFEST_NAME).exists():
                    # Death before the very first commit: nothing was ever
                    # durable, so nothing may have been acked either.
                    assert not acked
                    continue
                recovered = FilterStore.open(root)
                assert_parity(recovered, acked, inflight, seed)
                abandon(recovered)
                total += 1
        assert total > 40  # the suite really enumerated a schedule


class TestStaleStagingReaper:
    def test_dead_pid_wal_temps_are_reaped(self, tmp_path):
        """A crash between `ShardWal.create`'s stage and rename leaves
        ``.…tmp-<pid>`` debris; recovery reaps dead-pid files only."""
        root = tmp_path / "store"
        store = make_store()
        store.attach_wal(root, DURABILITY)
        store.close()
        wdir = wal_dir(root)
        dead = wdir / f".{wal_name(0, 9)}.tmp-999999999"
        dead.write_bytes(b"orphaned roll staging")
        live = wdir / f".{wal_name(1, 9)}.tmp-{os.getpid()}"
        live.write_bytes(b"a roll still in flight in this process")
        recovered = FilterStore.open(root)
        assert not dead.exists()
        assert live.exists()  # its pid is alive: maybe a concurrent roll
        abandon(recovered)

    def test_checkpoint_reaps_dead_temps_too(self, tmp_path):
        root = tmp_path / "store"
        store = make_store()
        store.attach_wal(root, DURABILITY)
        dead = wal_dir(root) / f".{wal_name(0, 7)}.tmp-999999999"
        dead.write_bytes(b"orphan")
        store.checkpoint()
        assert not dead.exists()
        store.close()

    def test_dead_manifest_temps_are_reaped(self, tmp_path):
        root = tmp_path / "store"
        store = make_store()
        store.attach_wal(root, DURABILITY)
        store.close()
        dead = root / f".{MANIFEST_NAME}.tmp-999999999"
        dead.write_text("{}")
        abandon(FilterStore.open(root))
        assert not dead.exists()


class TestSnapshotCrashWindows:
    def test_staging_crash_leaves_target_intact(self, tmp_path):
        store = make_store()
        keys = np.arange(64, dtype=np.int64)
        store.insert_many(keys, columns(keys))
        root = store.snapshot(tmp_path / "snap")
        more = np.arange(64, 128, dtype=np.int64)
        store.insert_many(more, columns(more))
        faults.arm("snapshot.staged")
        with pytest.raises(InjectedFault):
            store.snapshot(tmp_path / "snap")
        faults.reset()
        # The previous snapshot is untouched and fully openable.
        reopened = FilterStore.open(root)
        assert reopened.query_many(keys).all()
        assert not reopened.query_many(more).any()

    def test_displaced_window_crash_keeps_both_snapshots(self, tmp_path):
        store = make_store()
        keys = np.arange(64, dtype=np.int64)
        store.insert_many(keys, columns(keys))
        store.snapshot(tmp_path / "snap")
        more = np.arange(64, 128, dtype=np.int64)
        store.insert_many(more, columns(more))
        faults.arm("snapshot.displaced")  # between the two renames
        with pytest.raises(InjectedFault):
            store.snapshot(tmp_path / "snap")
        faults.reset()
        # Target momentarily absent, but both generations survive under
        # their hidden names…
        assert not (tmp_path / "snap").exists()
        hidden = sorted(p.name for p in tmp_path.glob(".snap.*"))
        assert len(hidden) == 2
        # …and the next snapshot to the same path converges and cleans up.
        root = store.snapshot(tmp_path / "snap")
        assert FilterStore.open(root).query_many(more).all()
        assert not list(tmp_path.glob(".snap.*"))


class TestWalDisabledSnapshotsUnchanged:
    def test_snapshots_stay_byte_identical_and_checksum_free(self, tmp_path):
        """Without a WAL attached, nothing about this PR may change the
        snapshot wire format: no checksum trailers, no wal manifest
        section, and deterministic byte-identical re-snapshots."""
        store = make_store()
        keys = np.arange(300, dtype=np.int64)
        store.insert_many(keys, columns(keys))
        first = store.snapshot(tmp_path / "one")
        second = FilterStore.open(first).snapshot(tmp_path / "two")
        manifest = (first / MANIFEST_NAME).read_text()
        assert '"wal"' not in manifest
        for seg in first.glob("*.seg"):
            meta = read_segment_meta(seg)
            assert all("crc32" not in spec for spec in meta["columns"].values())
        digests = []
        for root in (first, second):
            files = sorted(p.name for p in root.iterdir())
            digests.append(
                [
                    (name, hashlib.sha256((root / name).read_bytes()).hexdigest())
                    for name in files
                ]
            )
        assert digests[0] == digests[1]

    def test_checkpoint_segments_do_carry_checksums(self, tmp_path):
        root = tmp_path / "store"
        store = make_store()
        store.attach_wal(root, DURABILITY)
        keys = np.arange(64, dtype=np.int64)
        store.insert_many(keys, columns(keys))
        store.checkpoint()
        segs = list(root.glob("*.seg"))
        assert segs
        for seg in segs:
            meta = read_segment_meta(seg)
            assert all("crc32" in spec for spec in meta["columns"].values())
        store.close()
