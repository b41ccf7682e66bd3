"""Observability overhead benchmark: hot paths with metrics on vs off.

ISSUE 8's acceptance bar: the instrumentation threaded through kernel
dispatch, wave eviction, probe outcomes and store bookkeeping must stay
batch-granular — one record set per kernel call, never per key — so its
cost at the 1M-key kernel microbench scale is **under 3%**.

The benchmark times the same workload twice in one process, flipping only
``obs.set_enabled``:

* ``insert``  — kick-heavy batch build (wave counters + kernel timing)
* ``contains``— batch probes, half present half absent (kernel timing)
* ``delete``  — vectorised batch removal (kernel timing)
* ``store``   — batch queries against a prebuilt FilterStore (per-level
  probe-outcome counters, ops counters, kernel dispatch), at
  min(NUM_KEYS, 200k) rows.  The store is built once outside the
  timings: its scalar insert loop contains no instrumentation but takes
  seconds, so timing it would only add noise to the gated signal

Each stage reports best-of-``RUNS`` wall time in both states and the
relative overhead ``(on - off) / off``.  Samples are interleaved in
alternating order (off/on, on/off, ...) with a ``gc.collect()`` between
them: machine-level drift and the previous sample's teardown garbage then
land on both states evenly instead of on whichever ran second.

The gate binds on the *summed* hot-path time, not per stage: single-stage
wall times on shared hardware spread 10-30% run to run, which no
one-sided 3% bar can survive (a zero-overhead build would flake), while
the per-round sums pool four stages' independent noise.  Two estimators
of the summed overhead are computed — the median of per-round paired
differences (adjacent samples share machine conditions, so drift
cancels within a pair) and the ratio of best observed totals — and the
gate takes the smaller: both are consistent estimators of the same true
overhead, so requiring *either* to clear the bar keeps the false-alarm
rate low without loosening the bar itself.  The gate asserts
< ``REPRO_OBS_MAX_OVERHEAD`` (default 3%) at the 1M scale; smoke runs
only report (fixed per-batch costs dominate tiny batches, so a
percentage gate there measures noise, not instrumentation).  Per-stage
overheads are printed and recorded for reference but not gated.

The JSON artifact ``bench_results/obs_overhead.json`` is keyed by key
count and embeds the end-of-run registry snapshot under
``metrics_snapshot`` — CI feeds that to ``python -m repro.obs validate``
so the scrape schema is checked against a snapshot produced by real
hot-path traffic, not a hand-built fixture.

Environment knobs: ``REPRO_OBS_KEYS`` (default 1M), ``REPRO_OBS_RUNS``
(default 10), ``REPRO_OBS_MAX_OVERHEAD`` (default 0.03).
"""

from __future__ import annotations

import gc
import json
import os
import time

import numpy as np

from repro import obs
from repro.bench.reporting import RESULTS_DIR, save_json
from repro.ccf.attributes import AttributeSchema
from repro.ccf.params import CCFParams
from repro.cuckoo.filter import CuckooFilter
from repro.kernels import active_backend
from repro.store import FilterStore, StoreConfig

NUM_KEYS = int(os.environ.get("REPRO_OBS_KEYS", 1_000_000))
RUNS = int(os.environ.get("REPRO_OBS_RUNS", 10))
MAX_OVERHEAD = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD", 0.03))
#: The gate only binds at the acceptance scale (see module docstring).
GATE_SCALE = 1_000_000
RESULT_NAME = "obs_overhead"

STORE_ROWS = min(NUM_KEYS, 200_000)


def _kick_heavy_buckets(num_keys: int) -> int:
    """Smallest power-of-two table with load < 1 (kick-heavy batch build)."""
    buckets = 1
    while buckets * 4 < num_keys:
        buckets *= 2
    if buckets * 4 == num_keys:
        buckets *= 2
    return buckets


def _filter_stage_times(keys: np.ndarray, probes: np.ndarray) -> dict:
    """One wall-time sample per cuckoo-filter stage, current obs state."""
    num_buckets = _kick_heavy_buckets(len(keys))
    filt = CuckooFilter(num_buckets, 4, 12, seed=7)
    start = time.perf_counter()
    filt.insert_many(keys)
    insert = time.perf_counter() - start

    start = time.perf_counter()
    filt.contains_many(probes)
    contains = time.perf_counter() - start

    start = time.perf_counter()
    filt.delete_many(keys[::2])
    delete = time.perf_counter() - start
    return {"insert": insert, "contains": contains, "delete": delete}


def _build_store() -> FilterStore:
    """The query-stage fixture, built once (uninstrumented scalar loop)."""
    schema = AttributeSchema(["color"])
    params = CCFParams(key_bits=24, attr_bits=8, bucket_size=4, seed=11)
    keys = np.arange(STORE_ROWS, dtype=np.int64)
    colors = np.array(["red", "green", "blue"], dtype=object)[keys % 3]
    store = FilterStore(
        schema, params, StoreConfig(num_shards=2, level_buckets=4096)
    )
    store.insert_many(keys, [colors])
    return store


def _store_stage_time(store: FilterStore) -> float:
    """One wall-time sample for the instrumented store query path."""
    keys = np.arange(STORE_ROWS, dtype=np.int64)
    start = time.perf_counter()
    store.query_many(keys[::2])
    store.query_many(keys + STORE_ROWS)  # all-absent probe
    return time.perf_counter() - start


def _one_sample(store: FilterStore) -> dict:
    rng = np.random.default_rng(3)
    keys = np.arange(NUM_KEYS, dtype=np.int64)
    probes = rng.integers(0, 2 * NUM_KEYS, NUM_KEYS)
    stages = _filter_stage_times(keys, probes)
    stages["store"] = _store_stage_time(store)
    return stages


def test_obs_overhead():
    was_enabled = obs.enabled()
    try:
        # Warm-up pass (JIT compiles, allocator, imports) outside the
        # timings, then RUNS interleaved off/on pairs.  Interleaving means
        # machine-level drift (frequency scaling, co-tenant load) hits both
        # states alike instead of whichever pass ran second; best-of-RUNS
        # per state then compares the quiet iterations of each.
        obs.set_enabled(True)
        store = _build_store()
        _one_sample(store)
        off = {stage: float("inf") for stage in ("insert", "contains", "delete", "store")}
        on = dict(off)
        rounds = []  # (total_off, total_on) per interleaved pair
        for i in range(RUNS):
            # Alternate which state goes first: the second sample of a pair
            # inherits the first's teardown garbage, a bias that would
            # otherwise be charged entirely to one state.
            order = (False, True) if i % 2 == 0 else (True, False)
            totals = {}
            for state in order:
                obs.set_enabled(state)
                gc.collect()
                target = on if state else off
                sample = _one_sample(store)
                totals[state] = sum(sample.values())
                for stage, seconds in sample.items():
                    target[stage] = min(target[stage], seconds)
            rounds.append((totals[False], totals[True]))
        obs._reset_for_tests()
        _one_sample(store)  # the artifact's snapshot comes from instrumented traffic
    finally:
        obs.set_enabled(was_enabled)

    overheads = {
        stage: (on[stage] - off[stage]) / off[stage] for stage in off
    }
    # The two gate estimators (see module docstring).
    paired = sorted((t_on - t_off) / t_off for t_off, t_on in rounds)
    mid = len(paired) // 2
    paired_median = (
        paired[mid] if len(paired) % 2 else (paired[mid - 1] + paired[mid]) / 2
    )
    best_total_off = min(t_off for t_off, _ in rounds)
    best_total_on = min(t_on for _, t_on in rounds)
    best_total = (best_total_on - best_total_off) / best_total_off
    gate_estimate = min(paired_median, best_total)
    snapshot = obs.snapshot()
    assert obs.validate_snapshot(snapshot) == [], "registry snapshot invalid"

    record = {
        "keys": NUM_KEYS,
        "store_rows": STORE_ROWS,
        "runs": RUNS,
        "backend": active_backend().name,
        "max_overhead_gate": MAX_OVERHEAD,
        "gated": NUM_KEYS >= GATE_SCALE,
        "seconds_off": off,
        "seconds_on": on,
        "overhead": overheads,
        "round_totals": [{"off": t_off, "on": t_on} for t_off, t_on in rounds],
        "paired_median_overhead": paired_median,
        "best_total_overhead": best_total,
        "gate_estimate": gate_estimate,
        "metrics_snapshot": snapshot,
    }

    path = RESULTS_DIR / f"{RESULT_NAME}.json"
    merged: dict = {}
    if path.exists():
        merged = json.loads(path.read_text())
    merged[str(NUM_KEYS)] = record
    save_json(RESULT_NAME, merged)

    for stage in ("insert", "contains", "delete", "store"):
        print(
            f"obs overhead @ {NUM_KEYS} keys, {stage}: "
            f"off {off[stage]*1e3:.1f}ms on {on[stage]*1e3:.1f}ms "
            f"({overheads[stage]*100:+.2f}%)"
        )
    print(
        f"obs overhead @ {NUM_KEYS} keys, total: "
        f"paired-median {paired_median*100:+.2f}% "
        f"best-total {best_total*100:+.2f}% "
        f"-> gate {gate_estimate*100:+.2f}%"
    )

    if NUM_KEYS >= GATE_SCALE:
        assert gate_estimate < MAX_OVERHEAD, (
            f"obs overhead is {gate_estimate*100:.2f}% "
            f"(paired-median {paired_median*100:.2f}%, "
            f"best-total {best_total*100:.2f}%), "
            f"over the {MAX_OVERHEAD*100:.0f}% acceptance bar"
        )


if __name__ == "__main__":
    test_obs_overhead()
