"""Integration tests for the observability layer across the stack.

Three guarantees the obs layer must keep:

* **Instrumentation lands where expected** — inserts and queries populate
  kernel, wave, CCF-probe, shard-probe and store families, and the
  resulting snapshot validates, round-trips and is reachable from
  ``store.stats()["metrics"]`` and ``ServeRuntime.metrics()``.
* **The kill switch is bit-identical** — a random op trace replayed with
  metrics on and off produces the same answers and the same snapshot
  bytes on disk (hypothesis-driven).
* **Cross-process merge is exact** — fork, spawn and thread pools answer
  the same batches as a serial run, and their merged registries report
  the same op/probe totals as the serial registry.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.ccf.attributes import AttributeSchema
from repro.ccf.params import CCFParams
from repro.obs.registry import counters_total
from repro.serve import ServeRuntime, WorkerPool
from repro.store import FilterStore, StoreConfig
from repro.store.metrics import OPS_METRIC, store_metrics

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(key_bits=24, attr_bits=16, bucket_size=4, seed=23)
COLORS = ("red", "green", "blue")


@pytest.fixture(autouse=True)
def _metrics_on():
    was = obs.enabled()
    obs.set_enabled(True)
    obs._reset_for_tests()
    yield
    obs.set_enabled(was)
    obs._reset_for_tests()


def row_columns(keys: np.ndarray) -> list:
    colors = np.array(COLORS, dtype=object)[keys % 3]
    sizes = keys % 11
    return [colors, sizes]


def make_store(num_shards: int = 2) -> FilterStore:
    return FilterStore(
        SCHEMA, PARAMS, StoreConfig(num_shards=num_shards, level_buckets=64)
    )


# ----------------------------------------------------------------------
# Instrumentation coverage
# ----------------------------------------------------------------------


def test_store_workload_populates_every_layer():
    store = make_store()
    keys = np.arange(4000, dtype=np.int64)
    assert store.insert_many(keys, row_columns(keys)).all()
    present = store.query_many(keys[::2])
    absent = store.query_many(np.arange(10**6, 10**6 + 1000))
    assert present.all()

    snap = store.stats()["metrics"]
    assert obs.validate_snapshot(snap) == []
    # Kernel dispatch: at least the probe/insert kernels ran.
    kernels = {
        s["labels"]["kernel"] for s in snap["repro_kernel_calls_total"]["samples"]
    }
    assert "pair_eq" in kernels
    assert counters_total(snap, "repro_kernel_calls_total") > 0
    assert counters_total(snap, "repro_kernel_seconds_total") > 0
    # Shard probe outcomes: every positive answer is a per-level hit and
    # every negative answer drained through all levels to a miss.
    hits = counters_total(snap, "repro_probe_hits_total")
    misses = counters_total(snap, "repro_probe_misses_total")
    assert hits == int(present.sum()) + int(absent.sum())
    assert misses == int((~absent).sum())
    # Store ops overlay, from the writer's lifetime counters.
    ops = {
        (s["labels"]["op"], s["labels"]["unit"]): s["value"]
        for s in snap[OPS_METRIC]["samples"]
    }
    assert ops[("insert", "calls")] == 1
    assert ops[("insert", "keys")] == len(keys)
    assert ops[("query", "calls")] == 2
    assert ops[("query", "keys")] == len(keys[::2]) + 1000
    # Structural gauges: one sample per shard, plus the store-wide size.
    shards = {s["labels"]["shard"] for s in snap["repro_store_entries"]["samples"]}
    assert shards == {"0", "1"}
    assert snap["repro_store_entries"]["type"] == "gauge"
    assert snap["repro_store_size_bytes"]["samples"][0]["value"] > 0
    # The whole thing survives both expositions.
    assert obs.parse_prometheus(obs.to_prometheus(snap)) == snap
    assert obs.from_json(obs.to_json(snap)) == snap


def test_ccf_query_many_counts_probe_outcomes():
    from repro.ccf.factory import make_ccf

    ccf = make_ccf("plain", SCHEMA, 256, PARAMS)
    keys = np.arange(400, dtype=np.int64)
    ccf.insert_many(keys, row_columns(keys))
    present = ccf.query_many(keys)
    absent = ccf.query_many(np.arange(10**6, 10**6 + 300))

    snap = obs.snapshot()
    hits = counters_total(snap, "repro_ccf_query_hits_total")
    misses = counters_total(snap, "repro_ccf_query_misses_total")
    assert hits == int(present.sum()) + int(absent.sum())
    assert misses == int((~present).sum()) + int((~absent).sum())
    kinds = {
        s["labels"]["kind"]
        for s in snap["repro_ccf_query_hits_total"]["samples"]
        if s["value"]
    }
    assert kinds == {ccf.kind}


def test_query_counters_bind_on_a_variants_first_query():
    """A variant's hit and miss series appear with its first batch query
    (never before), and its bound children keep counting after a clear."""
    from repro.ccf.base import _QUERY_CHILDREN
    from repro.ccf.plain import PlainCCF

    class ProbedOnceCCF(PlainCCF):
        kind = "probed-once"

    def series() -> list:
        snap = obs.snapshot()
        return [
            sample["value"]
            for name in ("repro_ccf_query_hits_total", "repro_ccf_query_misses_total")
            for sample in snap[name]["samples"]
            if sample["labels"]["kind"] == ProbedOnceCCF.kind
        ]

    ccf = ProbedOnceCCF(SCHEMA, 64, PARAMS)
    keys = np.arange(50, dtype=np.int64)
    ccf.insert_many(keys, row_columns(keys))
    ccf.query(3)
    assert series() == []
    hits = int(ccf.query_many(np.arange(100)).sum())
    assert series() == [hits, 100 - hits]
    children = _QUERY_CHILDREN[ProbedOnceCCF.kind]
    obs._reset_for_tests()
    assert series() == [0, 0]
    ccf.query_many(np.arange(100))
    assert _QUERY_CHILDREN[ProbedOnceCCF.kind] is children
    assert series() == [hits, 100 - hits]


@pytest.mark.parametrize("kind", ["plain", "chained"])
def test_stash_hits_count_keys_only_the_stash_admits(kind):
    """A stash hit counts when the pair that answers a key admits it through
    a stashed entry and through none of its slots."""
    from repro.ccf.factory import make_ccf
    from repro.ccf.predicates import Eq

    params = CCFParams(key_bits=4, attr_bits=4, bucket_size=2, max_dupes=2, max_kicks=5, seed=0)
    ccf = make_ccf(kind, SCHEMA, 8, params)
    keys = np.arange(60, dtype=np.int64)
    ccf.insert_many(keys, row_columns(keys))
    compiled = ccf.compile(Eq("color", "red"))
    rescued = both = 0
    for key in range(200):
        fp, home = ccf.fingerprint_of(key), ccf.home_index(key)
        walk = ccf._pair_walk(home, fp) if kind == "chained" else [(home, ccf.alt_index(home, fp))]
        for left, right in walk:
            slots, stashed = ccf._fp_entries_in_pair(left, right, fp)
            in_table = ccf._any_admits(slots, [], compiled)
            in_stash = ccf._any_admits([], stashed, compiled)
            if in_table or in_stash:
                rescued += not in_table
                both += in_table and in_stash
                break
            if kind != "chained" or len(slots) + len(stashed) != params.max_dupes:
                break
    assert rescued and both  # both cases occur
    obs._reset_for_tests()
    ccf.query_many(np.arange(200, dtype=np.int64), compiled)
    assert counters_total(obs.snapshot(), "repro_probe_stash_hits_total") == rescued


def test_stash_hits_count_only_at_the_deciding_pair():
    """A chain walk probes every pair its directory knows in one pass, so
    it also sees pairs past the one that decides a key.  A stashed copy
    there that admits the predicate must not count; once the walk reaches
    its pair, it does."""
    from repro.ccf.factory import make_ccf
    from repro.ccf.predicates import Eq

    params = CCFParams(key_bits=12, attr_bits=16, bucket_size=4, max_dupes=2, seed=5)
    ccf = make_ccf("chained", SCHEMA, 256, params)
    key, fp = 7, ccf.fingerprint_of(7)
    first = min(ccf.home_index(key), ccf.alt_index(ccf.home_index(key), fp))
    for size in (1, 2, 3):  # two copies fill the first pair, one goes on
        ccf.insert(key, ("green", size))
    third = ccf.geometry.chain_pair(first, fp, 2)
    # The same fingerprint stashed in the third pair, say by a key whose
    # chain meets this one there.
    avec = ccf.fingerprinter.vector(("red", 0))
    ccf.stash.append(fp, min(third), avecs=avec)
    compiled = ccf.compile(Eq("color", "red"))
    obs._reset_for_tests()
    assert not ccf.query(key, compiled)
    assert ccf.query_many(np.array([key]), compiled).tolist() == [False]
    assert counters_total(obs.snapshot(), "repro_probe_stash_hits_total") == 0
    ccf.insert(key, ("green", 4))  # the second pair is d-full now
    assert ccf.query(key, compiled)
    assert ccf.query_many(np.array([key]), compiled).tolist() == [True]
    assert counters_total(obs.snapshot(), "repro_probe_stash_hits_total") == 1


def test_bulk_build_populates_wave_metrics():
    from repro.cuckoo.filter import CuckooFilter

    # ~90% load on a 256-slot filter: the conflict-free first wave cannot
    # place everything, so the residue goes through the wave-kick kernel.
    filt = CuckooFilter(64, 4, 10, seed=7)
    keys = list(range(230))
    filt.insert_many(keys)

    snap = obs.snapshot()
    assert counters_total(snap, "repro_wave_calls_total") >= 1
    assert counters_total(snap, "repro_wave_items_total") >= 1
    hist = snap["repro_wave_relocations"]["samples"][0]
    assert hist["count"] == counters_total(snap, "repro_wave_calls_total")
    assert hist["sum"] == counters_total(snap, "repro_wave_relocations_total")


def test_snapshot_refresh_and_compaction_metrics(tmp_path):
    store = make_store(num_shards=1)
    keys = np.arange(3000, dtype=np.int64)
    store.insert_many(keys, row_columns(keys))
    path = store.snapshot(tmp_path / "snap")
    store.compact()
    reader = FilterStore.open(path)
    store.snapshot(tmp_path / "snap2")
    reader.refresh(tmp_path / "snap2")

    snap = obs.snapshot()
    assert counters_total(snap, "repro_store_snapshots_total") == 2
    assert snap["repro_store_snapshot_us"]["samples"][0]["count"] == 2
    assert counters_total(snap, "repro_store_compactions_total") >= 1
    assert counters_total(snap, "repro_store_compaction_bytes_total") > 0
    refresh_levels = {
        s["labels"]["outcome"]: s["value"]
        for s in snap["repro_store_refresh_levels_total"]["samples"]
    }
    assert sum(refresh_levels.values()) >= 1
    # Spans from the same operations land in the ring.
    names = {e["name"] for e in obs.to_chrome_trace()["traceEvents"]}
    assert {"store.snapshot", "shard.compact", "store.refresh"} <= names


def test_runtime_metrics_merges_pool_and_writer(tmp_path):
    store = make_store()
    keys = np.arange(2500, dtype=np.int64)
    store.insert_many(keys, row_columns(keys))
    with ServeRuntime(store, tmp_path, num_workers=2, mode="thread") as runtime:
        runtime.query_many(keys[:1000])
        runtime.query_many(np.arange(10**6, 10**6 + 500))
        merged = runtime.metrics()
        prom = runtime.metrics(fmt="prometheus")
        as_json = runtime.metrics(fmt="json")
        with pytest.raises(ValueError):
            runtime.metrics(fmt="yaml")
    assert obs.validate_snapshot(merged) == []
    ops = {
        (s["labels"]["op"], s["labels"]["unit"]): s["value"]
        for s in merged[OPS_METRIC]["samples"]
    }
    # Writer insert plus the pool workers' query deltas, one registry.
    assert ops[("insert", "keys")] == len(keys)
    assert ops[("query", "calls")] == 2
    assert ops[("query", "keys")] == 1500
    assert obs.parse_prometheus(prom) == merged
    assert obs.from_json(as_json) == merged


# ----------------------------------------------------------------------
# Kill-switch bit-identity
# ----------------------------------------------------------------------


def _replay(trace, metrics_enabled: bool):
    """Run an op trace against a fresh store; return (answers, digest)."""
    obs.set_enabled(metrics_enabled)
    obs._reset_for_tests()
    store = make_store()
    inserted: list[np.ndarray] = []
    answers = []
    for op, start, count in trace:
        keys = np.arange(start, start + count, dtype=np.int64)
        if op == "insert":
            answers.append(store.insert_many(keys, row_columns(keys)).copy())
            inserted.append(keys)
        elif op == "query":
            answers.append(store.query_many(keys).copy())
        elif op == "delete" and inserted:
            victims = inserted.pop()
            answers.append(
                store.delete_many(victims, row_columns(victims)).copy()
            )
        else:  # compact
            store.compact()
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = store.snapshot(Path(tmp) / "snap")
        for file in sorted(path.rglob("*")):
            if not file.is_file():
                continue
            digest.update(file.name.encode())
            if file.name == "manifest.json":
                digest.update(_normalised_manifest(file))
            else:
                digest.update(file.read_bytes())
    return answers, digest.hexdigest()


def _normalised_manifest(path: Path) -> bytes:
    """Manifest bytes with level seq tokens rebased to their minimum.

    The per-level content tokens embed a process-global allocation counter,
    so two replays in one process always differ by a constant offset.
    Rebasing keeps the comparison sensitive to *extra* allocations (a
    metrics-induced code-path difference) while ignoring the offset.
    """
    import json
    import re

    text = path.read_text()
    seqs = [int(m) for m in re.findall(r'"seq": "[0-9a-f]+-(\d+)"', text)]
    base = min(seqs) if seqs else 0
    text = re.sub(
        r'"seq": "[0-9a-f]+-(\d+)"',
        lambda m: f'"seq": "token-{int(m.group(1)) - base}"',
        text,
    )
    return json.dumps(json.loads(text), sort_keys=True).encode()


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "query", "delete", "compact"]),
            st.integers(min_value=0, max_value=5000),
            st.integers(min_value=1, max_value=400),
        ),
        min_size=2,
        max_size=8,
    )
)
def test_kill_switch_is_bit_identical(trace):
    """Metrics on vs off: same answers, byte-identical snapshot on disk."""
    on_answers, on_digest = _replay(trace, metrics_enabled=True)
    off_answers, off_digest = _replay(trace, metrics_enabled=False)
    obs.set_enabled(True)
    assert len(on_answers) == len(off_answers)
    for got, expected in zip(on_answers, off_answers):
        np.testing.assert_array_equal(got, expected)
    assert on_digest == off_digest


def test_kill_switch_records_nothing():
    obs.set_enabled(False)
    store = make_store()
    keys = np.arange(1500, dtype=np.int64)
    store.insert_many(keys, row_columns(keys))
    store.query_many(keys)
    snap = obs.snapshot()
    for name in (
        "repro_kernel_calls_total",
        "repro_wave_calls_total",
        "repro_ccf_query_hits_total",
        "repro_probe_misses_total",
    ):
        assert counters_total(snap, name) == 0, name
    obs.set_enabled(True)
    # The collection-time overlay still works with recording off: structure
    # is sampled from the store, not accumulated on the hot path.
    obs.set_enabled(False)
    try:
        overlay = store_metrics(store)
        assert counters_total(overlay, OPS_METRIC) > 0
        assert overlay["repro_store_size_bytes"]["samples"][0]["value"] > 0
    finally:
        obs.set_enabled(True)


# ----------------------------------------------------------------------
# Cross-process merge equality
# ----------------------------------------------------------------------

#: Counter families whose totals must be conserved no matter which worker
#: (or process) answered each batch.
CONSERVED = (
    "repro_probe_hits_total",
    "repro_probe_misses_total",
    "repro_kernel_calls_total",
)


def _query_batches(keys: np.ndarray) -> list[np.ndarray]:
    return [
        keys[::3],
        keys[1::7],
        np.arange(10**6, 10**6 + 800, dtype=np.int64),
        np.concatenate([keys[:200], np.arange(2 * 10**6, 2 * 10**6 + 200)]),
    ]


def _serial_totals(path, keys) -> tuple[dict, list[np.ndarray]]:
    """Answer the batches in-process; return conserved totals + answers."""
    obs._reset_for_tests()
    store = FilterStore.open(path)
    baseline = store.ops.to_dict()
    answers = [store.query_many(batch) for batch in _query_batches(keys)]
    delta = {k: v - baseline.get(k, 0) for k, v in store.ops.to_dict().items()}
    snap = store_metrics(store, ops=delta)
    totals = {name: counters_total(snap, name) for name in CONSERVED}
    totals[OPS_METRIC] = counters_total(snap, OPS_METRIC)
    obs._reset_for_tests()
    return totals, answers


@pytest.fixture(scope="module")
def built_snapshot(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-pool")
    store = make_store()
    keys = np.arange(3000, dtype=np.int64)
    assert store.insert_many(keys, row_columns(keys)).all()
    path = store.snapshot(root / "snap")
    return path, keys


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pool_merge_equals_serial(built_snapshot, start_method):
    import multiprocessing

    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} unavailable on this platform")
    path, keys = built_snapshot
    serial_totals, serial_answers = _serial_totals(path, keys)

    with WorkerPool(
        path, num_workers=2, mode="process", start_method=start_method
    ) as pool:
        pool_answers = [pool.query_many(b) for b in _query_batches(keys)]
        merged = pool.metrics()

    for got, expected in zip(pool_answers, serial_answers):
        np.testing.assert_array_equal(got, expected)
    assert obs.validate_snapshot(merged) == []
    for name in CONSERVED:
        assert counters_total(merged, name) == serial_totals[name], name
    assert counters_total(merged, OPS_METRIC) == serial_totals[OPS_METRIC]
    # Per-worker isolation means structural gauges still describe one
    # attached snapshot, not a double-counted sum (gauges merge by max).
    entries = sum(
        s["value"] for s in merged["repro_store_entries"]["samples"]
    )
    assert entries == len(keys)


def test_thread_pool_merge_equals_serial(built_snapshot):
    path, keys = built_snapshot
    serial_totals, serial_answers = _serial_totals(path, keys)

    obs._reset_for_tests()
    with WorkerPool(path, num_workers=2, mode="thread") as pool:
        pool_answers = [pool.query_many(b) for b in _query_batches(keys)]
        merged = pool.metrics()
        # Thread workers share this process's registry: probe counters are
        # already here, and the pool reply only contributes the ops delta.
        local = obs.snapshot()

    for got, expected in zip(pool_answers, serial_answers):
        np.testing.assert_array_equal(got, expected)
    assert counters_total(merged, OPS_METRIC) == serial_totals[OPS_METRIC]
    for name in CONSERVED:
        assert counters_total(local, name) == serial_totals[name], name
