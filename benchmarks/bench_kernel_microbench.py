"""Probe/insert/delete kernel microbenchmark: packed vs int64 vs pre-PR loops.

ISSUE 4's acceptance bar for the width-adaptive slot engine (DESIGN.md §9),
measured at 1M keys:

* ``delete_many`` — the vectorised rank-dedup kernel vs the pre-PR per-key
  Python loop (replayed verbatim through ``_delete_hashed``): >= 3x.
* ``contains_many`` — the fused packed-dtype gather vs the pre-PR kernel
  (two int64 fancy-gathers, replayed below): >= 1.5x.
* packed storage holds <= 1/4 the fingerprint bytes of int64 at f <= 16.

ISSUE 7 adds the kernel-backend dimension (DESIGN.md §12): the record's
``backends`` section times the same insert/probe/delete workload once per
*timed* backend — numpy always, numba when importable (the ``python``
oracle exists for parity testing, not timing).  Per backend it records the
numba version (or null), **cold vs warm JIT timing separately** (the cold
batch insert includes any ``@njit`` compile; with ``cache=True`` a warm
on-disk cache makes cold ~= warm), speedups relative to the in-process
numpy run, and — report-only — the keys/s of a per-key ``insert`` loop
filling the same geometry to load 0.95 (the batch-of-one path, which runs
its kick chains through the shared sequential tail).  ISSUE 7 acceptance, asserted only when numba is importable and
the run is at the 1M scale: warm numba ``insert_many`` (kick-heavy, load
>= 0.9) >= 2x numpy, with no probe/delete regression.

Results merge into ``bench_results/kernel_microbench.json`` keyed by key
count, so the 1M acceptance record and the CI smoke record coexist.

**CI regression gate.**  When ``REPRO_KERNEL_BASELINE`` points at a
committed result file holding an entry for the same key count, the run
fails if the packed `contains_many` speedup over the replayed pre-PR
kernel (the median of interleaved rounds' ratios) drops more than
``REPRO_KERNEL_MAX_REGRESSION`` (default 20%) below the baseline's.  The gate compares *speedups*, not absolute keys/s — the
reference kernel runs in the same process on the same machine, so the
ratio is hardware-portable where raw throughput is not — and it is
anchored to the pre-PR loop (the widest, most stable margin) rather than
the int64 twin, whose advantage at cache-resident smoke sizes is thin
enough for scheduler jitter to trip a false alarm.  The same gate applies
**per backend**: any backend present in both the baseline's and this run's
``backends`` section must hold its insert/contains speedup-vs-numpy to
within the allowed regression.

Environment knobs: ``REPRO_KERNEL_KEYS`` (default 1M),
``REPRO_KERNEL_BASELINE``, ``REPRO_KERNEL_MAX_REGRESSION``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.bench.reporting import RESULTS_DIR, save_json
from repro.cuckoo.filter import CuckooFilter
from repro.kernels import active_backend, available_backends, set_backend

NUM_KEYS = int(os.environ.get("REPRO_KERNEL_KEYS", 1_000_000))
BASELINE_PATH = os.environ.get("REPRO_KERNEL_BASELINE")
MAX_REGRESSION = float(os.environ.get("REPRO_KERNEL_MAX_REGRESSION", 0.2))
#: ISSUE 4 acceptance thresholds, asserted at the 1M-key scale.
MIN_DELETE_SPEEDUP = 3.0
MIN_CONTAINS_SPEEDUP = 1.5
#: ISSUE 7 acceptance thresholds (numba importable, 1M-key scale only).
MIN_NUMBA_INSERT_SPEEDUP = 2.0
#: "No regression" floor on numba probe/delete vs numpy (10% jitter allowance).
MIN_NUMBA_HOLD = 0.9
RESULT_NAME = "kernel_microbench"
#: Interleaved rounds of the gated probe timings, and the work each timed
#: sample covers: enough back-to-back calls for about SAMPLE_KEYS probes, so
#: a sample at the CI smoke scale spans tens of milliseconds rather than
#: one scheduler-sized slice of a few.
CONTAINS_ROUNDS = 25
SAMPLE_KEYS = 400_000


def _build(packed: bool) -> CuckooFilter:
    cuckoo = CuckooFilter.from_capacity(
        NUM_KEYS, bucket_size=4, fingerprint_bits=12, seed=7, packed=packed
    )
    cuckoo.insert_many(np.arange(NUM_KEYS, dtype=np.int64))
    return cuckoo


def _best_of(runs: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved(runs: int, *calls: tuple, per_sample: int = 1) -> list[list[float]]:
    """Wall time per call of each ``(fn, *args)``, one sample per round.

    Each call runs once untimed first, so none is timed cold, and the timed
    runs go round-robin, so drift in caches or clock speed reaches every
    call of a round alike instead of whichever ran first.  A sample runs
    its call ``per_sample`` times back to back and counts their mean, so a
    short call is not judged by one scheduling slice.  Returns ``runs``
    rows of per-call times.
    """
    for fn, *args in calls:
        fn(*args)
    rounds = []
    for _ in range(runs):
        row = []
        for fn, *args in calls:
            start = time.perf_counter()
            for _ in range(per_sample):
                fn(*args)
            row.append((time.perf_counter() - start) / per_sample)
        rounds.append(row)
    return rounds


def _pre_pr_contains_many(cuckoo: CuckooFilter, keys: np.ndarray) -> np.ndarray:
    """The pre-PR probe kernel, verbatim: two int64 fancy-gathers (the
    stash read through its fingerprint column; the filter stashes nothing)."""
    fps = cuckoo.fingerprints_of_many(keys)
    homes = cuckoo.home_indices_of_many(keys)
    alts = homes ^ cuckoo.geometry.fp_jump_many(fps)
    table = cuckoo.buckets.fps
    fp_col = fps[:, None]
    found = (table[homes] == fp_col).any(axis=1)
    found |= (table[alts] == fp_col).any(axis=1)
    if cuckoo.stash:
        found |= np.isin(fps, cuckoo.stash.fps)
    return found


def _pre_pr_delete_many(cuckoo: CuckooFilter, keys: np.ndarray) -> np.ndarray:
    """The pre-PR removal loop, verbatim: vectorised hashing, per-key kernel."""
    fps = cuckoo.fingerprints_of_many(keys).tolist()
    homes = cuckoo.home_indices_of_many(keys).tolist()
    out = np.empty(len(fps), dtype=bool)
    for i, (fp, home) in enumerate(zip(fps, homes)):
        out[i] = cuckoo._delete_hashed(fp, home)
    return out


def _kick_heavy_buckets() -> int:
    """Smallest power-of-two bucket count fitting NUM_KEYS, load < 1.

    ``from_capacity`` at the default 0.95 target usually rounds up a full
    power of two (load ~0.48) — far too roomy to exercise the eviction
    loop.  The backend sweep instead sizes the table tight: at the 1M
    default this lands at 262144 buckets (load ~0.954), making the batch
    insert kick-heavy as ISSUE 7's acceptance bar requires.
    """
    buckets = 1
    while buckets * 4 < NUM_KEYS:
        buckets *= 2
    if buckets * 4 == NUM_KEYS:  # exactly full would demand load 1.0
        buckets *= 2
    return buckets


def _bench_one_backend(
    name: str, keys: np.ndarray, probes: np.ndarray
) -> tuple[dict, np.ndarray, np.ndarray]:
    """Time insert (cold + warm), probe and delete under backend ``name``.

    Cold = the first batch insert after selecting the backend, which pays
    any JIT compile (or on-disk cache load) the backend defers to first use.
    Warm = the same build on a fresh filter once the kernels are compiled.
    Scalar = a per-key ``insert`` loop filling the same geometry to load
    0.95.  Returns the timing record plus the probe/delete answers for
    parity assertions against the reference backend.
    """
    backend = set_backend(name)
    num_buckets = _kick_heavy_buckets()
    try:
        cold_filter = CuckooFilter(num_buckets, 4, 12, seed=7)
        start = time.perf_counter()
        cold_filter.insert_many(keys)
        insert_cold = time.perf_counter() - start

        warm_filter = CuckooFilter(num_buckets, 4, 12, seed=7)
        start = time.perf_counter()
        warm_filter.insert_many(keys)
        insert_warm = time.perf_counter() - start

        # Filled to load 0.95 of the same geometry, so the per-key loop is
        # kick-heavy at every scale (the batch build reaches ~0.95 only at 1M).
        scalar_filter = CuckooFilter(num_buckets, 4, 12, seed=7)
        scalar_keys = list(range(int(0.95 * num_buckets * 4)))
        insert = scalar_filter.insert
        start = time.perf_counter()
        for key in scalar_keys:
            insert(key)
        insert_scalar = time.perf_counter() - start

        contains = _best_of(3, warm_filter.contains_many, probes)
        probe_answers = warm_filter.contains_many(probes)

        victims = keys[::2]
        start = time.perf_counter()
        delete_answers = warm_filter.delete_many(victims)
        delete = time.perf_counter() - start

        record = {
            "backend": backend.name,
            "numba_version": backend.info.get("numba_version"),
            "load_factor_built": cold_filter.load_factor(),
            "insert_cold_s": insert_cold,
            "insert_warm_s": insert_warm,
            "jit_overhead_s": max(0.0, insert_cold - insert_warm),
            "insert_cold_keys_per_s": NUM_KEYS / insert_cold,
            "insert_warm_keys_per_s": NUM_KEYS / insert_warm,
            "scalar_insert_keys_per_s": len(scalar_keys) / insert_scalar,
            "scalar_insert_load_factor": scalar_filter.load_factor(),
            "contains_keys_per_s": NUM_KEYS / contains,
            "delete_keys_per_s": len(victims) / delete,
        }
        return record, probe_answers, delete_answers
    finally:
        set_backend(None)


def _bench_backends(keys: np.ndarray, probes: np.ndarray) -> dict:
    """Per-backend timing sweep: numpy always, numba when importable."""
    timed = ["numpy"]
    if available_backends().get("numba"):
        timed.append("numba")
    records: dict[str, dict] = {}
    reference_probe = reference_delete = None
    for name in timed:
        record, probe_answers, delete_answers = _bench_one_backend(name, keys, probes)
        if reference_probe is None:
            reference_probe, reference_delete = probe_answers, delete_answers
        else:
            # Timed runs double as a full-scale parity check.
            assert probe_answers.tolist() == reference_probe.tolist()
            assert delete_answers.tolist() == reference_delete.tolist()
        records[name] = record
    numpy_record = records["numpy"]
    for record in records.values():
        record["insert_speedup_vs_numpy"] = (
            record["insert_warm_keys_per_s"] / numpy_record["insert_warm_keys_per_s"]
        )
        record["contains_speedup_vs_numpy"] = (
            record["contains_keys_per_s"] / numpy_record["contains_keys_per_s"]
        )
        record["delete_speedup_vs_numpy"] = (
            record["delete_keys_per_s"] / numpy_record["delete_keys_per_s"]
        )
    return records


def test_kernel_microbench():
    rng = np.random.default_rng(3)
    # Half present, half absent probes — the serving mix.
    probes = rng.integers(0, 2 * NUM_KEYS, NUM_KEYS)
    victims = np.arange(0, NUM_KEYS, 2, dtype=np.int64)

    packed = _build(packed=True)
    legacy = _build(packed=False)
    assert packed.buckets.fps.dtype == np.uint16
    assert legacy.buckets.fps.dtype == np.int64
    fingerprint_byte_ratio = (
        packed.buckets.fingerprint_bytes() / legacy.buckets.fingerprint_bytes()
    )
    assert fingerprint_byte_ratio <= 0.25  # f=12 packs into uint16

    # Probes (non-mutating): warmed, then CONTAINS_ROUNDS interleaved
    # rounds, a sample covering about SAMPLE_KEYS probes; answers asserted
    # equal.  Rates come from each call's best sample.  The speedups are
    # medians of the rounds' own ratios: the calls of one round run back to
    # back on the same machine state, so a slow spell of the shared host
    # moves both sides of a ratio, where it would pick one side's best.
    rounds = _interleaved(
        CONTAINS_ROUNDS,
        (packed.contains_many, probes),
        (legacy.contains_many, probes),
        (_pre_pr_contains_many, legacy, probes),
        per_sample=max(1, SAMPLE_KEYS // NUM_KEYS),
    )
    packed_contains, legacy_contains, pre_pr_contains = (min(column) for column in zip(*rounds))
    assert (
        packed.contains_many(probes).tolist()
        == _pre_pr_contains_many(legacy, probes).tolist()
    )

    # Batch insert (first wave + wave eviction) timing on a fresh filter.
    keys = np.arange(NUM_KEYS, dtype=np.int64)
    fresh = CuckooFilter.from_capacity(NUM_KEYS, bucket_size=4, fingerprint_bits=12, seed=7)
    start = time.perf_counter()
    fresh.insert_many(keys)
    packed_insert = time.perf_counter() - start

    # Deletes mutate: one run each on identically-built twins.
    start = time.perf_counter()
    packed_deleted = packed.delete_many(victims)
    packed_delete = time.perf_counter() - start
    start = time.perf_counter()
    legacy_deleted = _pre_pr_delete_many(legacy, victims)
    pre_pr_delete = time.perf_counter() - start
    assert packed_deleted.tolist() == legacy_deleted.tolist()

    backends = _bench_backends(keys, probes)

    contains_speedup_vs_int64 = float(np.median([legacy / packed for packed, legacy, _ in rounds]))
    contains_speedup_vs_pre_pr = float(np.median([pre / packed for packed, _, pre in rounds]))
    delete_speedup_vs_pre_pr = pre_pr_delete / packed_delete
    record = {
        "keys": NUM_KEYS,
        "active_backend": active_backend().name,
        "backends": backends,
        "bucket_size": 4,
        "fingerprint_bits": 12,
        "fingerprint_bytes_packed": packed.buckets.fingerprint_bytes(),
        "fingerprint_bytes_int64": legacy.buckets.fingerprint_bytes(),
        "fingerprint_byte_ratio": fingerprint_byte_ratio,
        "bytes_per_slot_packed": packed.buckets.bytes_per_slot,
        "packed_insert_keys_per_s": NUM_KEYS / packed_insert,
        "packed_contains_keys_per_s": NUM_KEYS / packed_contains,
        "int64_contains_keys_per_s": NUM_KEYS / legacy_contains,
        "pre_pr_contains_keys_per_s": NUM_KEYS / pre_pr_contains,
        "packed_delete_keys_per_s": len(victims) / packed_delete,
        "pre_pr_delete_keys_per_s": len(victims) / pre_pr_delete,
        "contains_speedup_vs_int64": contains_speedup_vs_int64,
        "contains_speedup_vs_pre_pr": contains_speedup_vs_pre_pr,
        "delete_speedup_vs_pre_pr": delete_speedup_vs_pre_pr,
    }

    # Snapshot the committed baseline BEFORE writing results: the baseline
    # file and the output file are typically the same path.
    baseline = None
    if BASELINE_PATH and os.path.exists(BASELINE_PATH):
        baseline = json.loads(open(BASELINE_PATH).read()).get(str(NUM_KEYS))

    # Merge with any existing result file so 1M and smoke entries coexist.
    path = RESULTS_DIR / f"{RESULT_NAME}.json"
    merged: dict = {}
    if path.exists():
        merged = json.loads(path.read_text())
    merged[str(NUM_KEYS)] = record
    save_json(RESULT_NAME, merged)
    print(
        f"kernel microbench @ {NUM_KEYS} keys: contains "
        f"{record['packed_contains_keys_per_s']/1e6:.1f}M/s "
        f"({contains_speedup_vs_pre_pr:.2f}x pre-PR, "
        f"{contains_speedup_vs_int64:.2f}x int64), delete "
        f"{record['packed_delete_keys_per_s']/1e6:.2f}M/s "
        f"({delete_speedup_vs_pre_pr:.1f}x pre-PR), "
        f"fingerprint bytes {fingerprint_byte_ratio:.2f}x int64"
    )
    for name, entry in backends.items():
        version = entry["numba_version"] or "-"
        print(
            f"  backend {name} (numba={version}): insert warm "
            f"{entry['insert_warm_keys_per_s']/1e6:.2f}M/s "
            f"(cold {entry['insert_cold_keys_per_s']/1e6:.2f}M/s, "
            f"jit {entry['jit_overhead_s']*1e3:.0f}ms), per-key insert "
            f"{entry['scalar_insert_keys_per_s']/1e6:.2f}M/s "
            f"(load {entry['scalar_insert_load_factor']:.3f}), contains "
            f"{entry['contains_keys_per_s']/1e6:.1f}M/s, delete "
            f"{entry['delete_keys_per_s']/1e6:.2f}M/s "
            f"[{entry['insert_speedup_vs_numpy']:.2f}x / "
            f"{entry['contains_speedup_vs_numpy']:.2f}x / "
            f"{entry['delete_speedup_vs_numpy']:.2f}x vs numpy]"
        )

    # Regression gate against the committed baseline (same key count only).
    if baseline is not None:
        floor = baseline["contains_speedup_vs_pre_pr"] * (1 - MAX_REGRESSION)
        assert contains_speedup_vs_pre_pr >= floor, (
            f"contains_many regressed: speedup over the pre-PR kernel fell to "
            f"{contains_speedup_vs_pre_pr:.2f}x, baseline "
            f"{baseline['contains_speedup_vs_pre_pr']:.2f}x (floor {floor:.2f}x)"
        )
        # Per-backend leg of the gate: a backend timed in both runs must
        # hold its warm speedups vs numpy (in-process ratios, so the
        # comparison is hardware-portable like the pre-PR anchor above).
        for name, base_entry in (baseline.get("backends") or {}).items():
            entry = backends.get(name)
            if entry is None or name == "numpy":
                continue
            for metric in ("insert_speedup_vs_numpy", "contains_speedup_vs_numpy"):
                backend_floor = base_entry[metric] * (1 - MAX_REGRESSION)
                assert entry[metric] >= backend_floor, (
                    f"backend {name} regressed on {metric}: "
                    f"{entry[metric]:.2f}x, baseline {base_entry[metric]:.2f}x "
                    f"(floor {backend_floor:.2f}x)"
                )

    # ISSUE 4 acceptance thresholds hold at the 1M scale; smoke runs with
    # fewer keys only report (fixed per-batch overheads dominate there).
    if NUM_KEYS >= 1_000_000:
        assert delete_speedup_vs_pre_pr >= MIN_DELETE_SPEEDUP
        assert contains_speedup_vs_pre_pr >= MIN_CONTAINS_SPEEDUP

    # ISSUE 7 acceptance: numba's JIT path must earn its keep at scale —
    # >= 2x on the kick-heavy batch insert (built load >= 0.9) with no
    # probe/delete regression.  Self-disables honestly when numba is not
    # importable (the record then carries numba_version: null).
    numba_entry = backends.get("numba")
    if numba_entry is not None and NUM_KEYS >= 1_000_000:
        assert numba_entry["load_factor_built"] >= 0.9
        assert numba_entry["insert_speedup_vs_numpy"] >= MIN_NUMBA_INSERT_SPEEDUP, (
            f"numba insert_many speedup {numba_entry['insert_speedup_vs_numpy']:.2f}x "
            f"below the {MIN_NUMBA_INSERT_SPEEDUP}x acceptance bar"
        )
        assert numba_entry["contains_speedup_vs_numpy"] >= MIN_NUMBA_HOLD
        assert numba_entry["delete_speedup_vs_numpy"] >= MIN_NUMBA_HOLD


if __name__ == "__main__":
    test_kernel_microbench()
