"""Cold-open latency and resident memory: SEG1 segments vs CCF4 decoding.

The acceptance bar for the mapped-segment engine (DESIGN.md §10), measured
on a store holding ``REPRO_MMAP_KEYS`` keys (default 1M):

* ``FilterStore.open`` on a segment snapshot is **>= 10x** faster than
  reading and ``loads()``-decoding every level's CCF4 ``dumps()`` payload
  at the 1M scale (>= 3x at CI smoke scale, where constant costs blunt the
  ratio) — segments open O(manifest), the bit-packed wire format decodes
  every slot up front;
* a mapped store answers a post-open probe batch bit-identically to the
  store that wrote the snapshot;
* resident-memory growth is recorded for both paths (``/proc/self/statm``;
  segment columns are file-backed, so only touched pages count against
  RSS, while decoded levels are private heap arrays).

Results merge into ``bench_results/mmap_open.json`` keyed by key count, so
the 1M acceptance record and the CI smoke record coexist.

Environment knobs: ``REPRO_MMAP_KEYS`` (default 1M).
"""

from __future__ import annotations

import gc
import json
import os
import time

import numpy as np

from repro.bench.reporting import RESULTS_DIR, save_json
from repro.ccf import AttributeSchema, CCFParams
from repro.ccf.serialize import dumps, loads
from repro.cuckoo.buckets import next_power_of_two
from repro.store import FilterStore, StoreConfig

NUM_KEYS = int(os.environ.get("REPRO_MMAP_KEYS", 1_000_000))
RESULT_NAME = "mmap_open"
#: Acceptance thresholds: the hard 10x bar holds at the 1M acceptance scale;
#: smoke runs still must clear 3x.
MIN_OPEN_SPEEDUP_FULL = 10.0
MIN_OPEN_SPEEDUP_SMOKE = 3.0

SCHEMA = AttributeSchema(["status", "region"])
PARAMS = CCFParams(key_bits=16, attr_bits=8, bucket_size=4, seed=9)
NUM_SHARDS = 4


def _rss_bytes() -> int | None:
    """Current resident set size, or None off-Linux."""
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return None


def _build_store() -> FilterStore:
    # Size levels so each shard stacks a handful of sealed levels.
    level_buckets = next_power_of_two(
        max(1024, NUM_KEYS // (NUM_SHARDS * PARAMS.bucket_size * 4))
    )
    config = StoreConfig(
        num_shards=NUM_SHARDS, level_buckets=level_buckets, target_load=0.85, seed=1
    )
    store = FilterStore(SCHEMA, PARAMS, config)
    keys = np.arange(NUM_KEYS, dtype=np.int64)
    for chunk in np.array_split(keys, max(1, NUM_KEYS // 100_000)):
        store.insert_many(chunk, [chunk % 5, chunk % 7])
    return store


def _write_payloads(store: FilterStore, directory) -> list:
    """Every level's CCF4 wire payload, one file each (the decode baseline)."""
    directory.mkdir()
    paths = []
    for shard in store.shards:
        for index, level in enumerate(shard.levels):
            path = directory / f"shard-{shard.shard_id:04d}-level-{index:04d}.ccf"
            path.write_bytes(dumps(level))
            paths.append(path)
    return paths


def _timed_decode(paths: list) -> dict:
    """Read and ``loads()`` every level payload, recording time and RSS."""
    gc.collect()
    rss_before = _rss_bytes()
    start = time.perf_counter()
    levels = [loads(path.read_bytes(), source=str(path)) for path in paths]
    open_seconds = time.perf_counter() - start
    rss_after = _rss_bytes()
    return {
        "open_seconds": open_seconds,
        "rss_delta_bytes": (
            None if rss_before is None else max(0, rss_after - rss_before)
        ),
        "resident_bytes": sum(level.storage_nbytes()[1] for level in levels),
    }


def _timed_open_and_probe(root, probe: np.ndarray) -> dict:
    """Open a snapshot cold and run one probe batch, recording time and RSS."""
    gc.collect()
    rss_before = _rss_bytes()
    start = time.perf_counter()
    store = FilterStore.open(root)
    open_seconds = time.perf_counter() - start
    start = time.perf_counter()
    answers = store.query_many(probe)
    first_query_seconds = time.perf_counter() - start
    rss_after = _rss_bytes()
    stats = store.stats()
    return {
        "open_seconds": open_seconds,
        "first_query_seconds": first_query_seconds,
        "rss_delta_bytes": (
            None if rss_before is None else max(0, rss_after - rss_before)
        ),
        "mapped_bytes": stats["mapped_bytes"],
        "resident_bytes": stats["resident_bytes"],
        "answers": answers,
    }


def test_mmap_open(tmp_path):
    store = _build_store()
    rng = np.random.default_rng(17)
    probe = rng.integers(0, 2 * NUM_KEYS, size=min(NUM_KEYS, 200_000)).astype(np.int64)
    expected = store.query_many(probe)

    seg_root = store.snapshot(tmp_path / "segment-snap")
    ccf_paths = _write_payloads(store, tmp_path / "ccf-payloads")
    num_levels = store.num_levels
    del store
    gc.collect()

    ccf = _timed_decode(ccf_paths)
    seg = _timed_open_and_probe(seg_root, probe)

    # Correctness first: the cold mapped store answers exactly like the writer.
    assert (seg.pop("answers") == expected).all(), "mapped reopen changed answers"
    assert seg["mapped_bytes"] > 0 and seg["resident_bytes"] == 0
    assert ccf["resident_bytes"] > 0

    open_speedup = ccf["open_seconds"] / seg["open_seconds"]
    min_speedup = (
        MIN_OPEN_SPEEDUP_FULL if NUM_KEYS >= 1_000_000 else MIN_OPEN_SPEEDUP_SMOKE
    )
    record = {
        "keys": NUM_KEYS,
        "levels": num_levels,
        "probe_batch": int(len(probe)),
        "ccf": ccf,
        "segment": seg,
        "open_speedup": open_speedup,
        "min_open_speedup": min_speedup,
    }

    # Merge with any existing result file so 1M and smoke entries coexist.
    path = RESULTS_DIR / f"{RESULT_NAME}.json"
    merged: dict = {}
    if path.exists():
        merged = json.loads(path.read_text())
    merged[str(NUM_KEYS)] = record
    save_json(RESULT_NAME, merged)

    def _mb(value):
        return "n/a" if value is None else f"{value / 1e6:.1f}MB"

    print(
        f"mmap open @ {NUM_KEYS} keys / {num_levels} levels: "
        f"segment open {seg['open_seconds'] * 1e3:.1f}ms vs "
        f"ccf {ccf['open_seconds'] * 1e3:.1f}ms ({open_speedup:.1f}x), "
        f"RSS open+probe {_mb(seg['rss_delta_bytes'])} "
        f"vs decode {_mb(ccf['rss_delta_bytes'])}, "
        f"mapped {seg['mapped_bytes'] / 1e6:.1f}MB"
    )
    assert open_speedup >= min_speedup, (
        f"segment cold open is only {open_speedup:.1f}x faster than decoding "
        f"the CCF4 payloads (required {min_speedup:.0f}x at {NUM_KEYS} keys)"
    )
