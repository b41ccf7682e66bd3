"""The four workloads: ``ingest``, ``serve``, ``mixed`` and ``join``.

Each workload function takes a :class:`Context` and returns a
:class:`Outcome`.  Set-up (input generation, store builds, snapshots, pool
start) is timed separately from the measured phases.  With a ledger
(``--trace 1``) the measured phases alternate traced and untraced windows of
identical work, so the same run yields the per-layer tables and the tracing
overhead.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from repro import obs
from repro.ccf.params import LARGE_PARAMS
from repro.ccf.predicates import And, Eq
from repro.serve import ServeRuntime
from repro.serve.frontend import CoalescingFrontEnd
from repro.store import DurabilityConfig, FilterStore, StoreConfig
from repro.store.maintenance import MaintenancePolicy, MaintenanceScheduler

from common import (
    BATCH_ROWS,
    NUM_SHARDS,
    PARAMS,
    PREDICATES,
    REGION_VALUES,
    SCHEMA,
    STATUS_VALUES,
    LoadResult,
    MachineSpeed,
    NullBackend,
    Requests,
    absent_keys,
    closed_loop,
    counter,
    counter_by,
    distinguishable,
    filter_signatures,
    hist,
    hist_delta,
    latency_summary,
    make_rows,
    open_loop,
    satisfies,
    steadiness,
    trimmed_mean,
)
from ledger import Ledger

FSYNC = "batch"

#: Workload sizes.  ``full`` keeps a run near 20-35 s on a 2-core x86-64
#: VM; ``smoke`` is the seconds-scale size that checks the metric set.
SIZES = {
    "full": {
        "ingest_rows": 30_000,
        "ingest_level_buckets": 512,
        "ingest_absent": 1_000_000,
        "serve_rows": 200_000,
        "serve_level_buckets": 2048,
        "serve_clients": 64,
        "serve_rate": 250.0,
        "serve_absent": 3_000_000,
        "mixed_rows": 100_000,
        "mixed_level_buckets": 2048,
        "mixed_clients": 8,
        "mixed_publish_every": 5,
        "mixed_absent": 2_000_000,
        "mixed_probe_at": 15,
        "join_scale": 0.0004,
        "window_s": 1.0,
    },
    "smoke": {
        "ingest_rows": 8_000,
        "ingest_level_buckets": 256,
        "ingest_absent": 50_000,
        "serve_rows": 8_000,
        "serve_level_buckets": 128,
        "serve_clients": 16,
        "serve_rate": 500.0,
        "serve_absent": 50_000,
        "mixed_rows": 8_000,
        "mixed_level_buckets": 128,
        "mixed_clients": 4,
        "mixed_publish_every": 2,
        "mixed_absent": 50_000,
        "mixed_probe_at": 2,
        "join_scale": 0.0002,
        "window_s": 0.5,
    },
}

#: Set-ups per run, whose median is ``setup_s``: more where one is cheap.
SETUPS = {"ingest": 5, "serve": 3, "mixed": 3, "join": 5}

#: Read lookups after recovery go out in batches of this many keys.
READ_BATCH = 1024
#: Seconds of measured work between calibration samples.
CALIBRATE_S = 0.05
#: Open-loop rate of the harness-floor traffic in ``mixed`` (requests/s).
MIXED_FLOOR_RATE = 250.0
#: Seconds of closed-loop traffic that warm a serving path before timing.
WARM_S = 1.0


@dataclass
class Context:
    seed: int
    seconds: float
    size: dict
    tmp: Path
    ledger: Ledger | None
    bounds: dict
    setups: int = 3
    setup_times: list = field(default_factory=list)
    speed: MachineSpeed = field(default_factory=MachineSpeed)
    _last_sample: float = 0.0
    #: The slowdown over the set-ups, which ``setup_s`` is read at.
    setup_slowdown: float | None = None

    @property
    def traced(self) -> bool:
        return self.ledger is not None

    @property
    def min_rounds(self) -> int:
        """Round-based workloads run at least one untraced and, when traced,
        one traced round."""
        return 2 if self.traced else 1

    def set_up(self, build, close=None):
        """Run ``build()`` ``setups`` times from the same seed, timing each
        (less the calibration inside it); every result but the last is
        released with ``close``.  The median of these times is ``setup_s``."""
        state = None
        first = len(self.speed.samples)
        for i in range(self.setups):
            if state is not None and close is not None:
                close(state)
            start, spent = perf_counter(), self.speed.spent_s
            state = build()
            self.setup_times.append(perf_counter() - start - (self.speed.spent_s - spent))
            self.calibrate(count=4, every=0.0)
        if not self.traced:
            self.setup_slowdown = self.speed.slowdown_of(self.speed.samples[first:])
        return state

    def calibrate(self, into: list | None = None, count: int = 1, every: float = CALIBRATE_S) -> None:
        """Between measured units: take ``count`` calibration samples if
        ``every`` seconds passed since the last, so samples spread evenly
        over the measured time, and add them to ``into`` (the samples of
        the phase the units belong to).  Traced runs report no timing
        metrics, so their layer tables stay free of calibration."""
        if self.traced or perf_counter() - self._last_sample < every:
            return
        self.speed.sample(count)
        self._last_sample = perf_counter()
        if into is not None:
            into.extend(self.speed.samples[-count:])

    def window(self, phase: str, traced: bool):
        """A timed window; a no-op context without a ledger."""
        if self.ledger is None:
            return nullcontext()
        return self.ledger.window(phase, traced)


@dataclass
class Outcome:
    """What a workload reports back to the runner."""

    metrics: dict = field(default_factory=dict)  # end-to-end name -> value
    attempted: int = 0
    failed: int = 0
    record: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)  # per-layer values from workload
    overhead: float | None = None
    #: Per end-to-end metric, the slowdown of the phase it was measured in,
    #: where that is not the run's.
    slowdowns: dict = field(default_factory=dict)
    registry_delta: dict = field(default_factory=dict)
    #: Per oracle check: [attempted, failed].
    checks: dict = field(default_factory=dict)

    def count(self, check: str, attempted: int, failed: int) -> None:
        """Record ``attempted`` operations of one oracle check, ``failed`` of
        them wrong (false negatives, errors, timeouts)."""
        entry = self.checks.setdefault(check, [0, 0])
        entry[0] += int(attempted)
        entry[1] += int(failed)
        self.attempted += int(attempted)
        self.failed += int(failed)


def _store_config(level_buckets: int) -> StoreConfig:
    return StoreConfig(
        num_shards=NUM_SHARDS, level_buckets=level_buckets, target_load=0.85, seed=1
    )


def _abandon(store: FilterStore) -> None:
    """Drop the WAL handles without syncing or checkpointing: the writer
    dies the way a crashed process does, so reopening really replays."""
    for shard in store.shards:
        if shard.wal is not None:
            shard.wal.close()
            shard.wal = None


class Tally:
    """Work done and seconds spent on it, summed over many timed units."""

    def __init__(self) -> None:
        self.units = 0.0
        self.seconds = 0.0
        #: Calibration samples taken right after these units.
        self.samples: list[float] = []
        #: Per-unit (units, seconds), for in-run steadiness.
        self.steps: list[tuple[float, float]] = []

    def add(self, units: float, seconds: float) -> None:
        self.units += units
        self.seconds += seconds
        self.steps.append((units, seconds))

    @property
    def rate(self) -> float:
        return self.units / self.seconds if self.seconds else 0.0

    def thirds(self) -> list[float]:
        """The rate over each third of the units, in order."""
        parts = np.array_split(np.array(self.steps, dtype=float).reshape(-1, 2), 3)
        return [float(p[:, 0].sum() / p[:, 1].sum()) for p in parts if len(p) and p[:, 1].sum()]


def _phase_slowdowns(ctx: Context, write_samples: list, read_samples: list) -> dict:
    """Write metrics read at the box's speed while writing, read metrics at
    its speed while reading."""
    if ctx.traced or not write_samples or not read_samples:
        return {}
    write, read = ctx.speed.slowdown_of(write_samples), ctx.speed.slowdown_of(read_samples)
    return {"write_rows_per_s": write, "read_keys_per_s": read, "read_mean_ms": read}


def _insert_batches(store, keys, status, region, tally: Tally | None = None, ctx=None) -> None:
    """Insert in 10k-row batches, each timed into ``tally`` and followed by
    calibration through ``ctx``."""
    for i in range(0, len(keys), BATCH_ROWS):
        sl = slice(i, i + BATCH_ROWS)
        start = perf_counter()
        store.insert_many(keys[sl], [status[sl], region[sl]])
        if tally is not None:
            tally.add(len(keys[sl]), perf_counter() - start)
            if ctx is not None:
                ctx.calibrate(tally.samples)


def _delete_batches(store, keys, status, region, tally: Tally, ctx) -> int:
    """Delete in 10k-row batches; returns rows removed."""
    removed = 0
    for i in range(0, len(keys), BATCH_ROWS):
        sl = slice(i, i + BATCH_ROWS)
        start = perf_counter()
        removed += int(store.delete_many(keys[sl], [status[sl], region[sl]]).sum())
        tally.add(len(keys[sl]), perf_counter() - start)
        ctx.calibrate(tally.samples)
    return removed


def _row_oracle(store, keys, status, region) -> tuple[int, int]:
    """(attempted, false negatives): every row must answer True under the
    exact predicate on both its attributes."""
    attempted = failed = 0
    for s in range(STATUS_VALUES):
        for r in range(REGION_VALUES):
            mask = (status == s) & (region == r)
            if not mask.any():
                continue
            compiled = store.compile(And([Eq("status", s), Eq("region", r)]))
            answers = store.query_many(keys[mask], compiled)
            attempted += int(mask.sum())
            failed += int((~answers).sum())
    return attempted, failed


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def ingest(ctx: Context) -> Outcome:
    """The durable write path, with no reads until the crash is recovered.

    One round: insert 10k-row batches into a WAL-attached store
    (``fsync="batch"``), delete 10% of them, run maintenance to convergence
    (compaction + checkpoint), insert a further 25%, abandon the writer and
    reopen it (replay) until the first answer.  Rounds repeat until the time
    is spent; every round checks the recovered store against the oracle.
    """
    size = ctx.size
    n = size["ingest_rows"]
    extra = n // 4
    deleted = n // 10
    rng = np.random.default_rng(ctx.seed + 1)
    out = Outcome()
    t = {"maintenance": [], "recovery": []}
    inserts, deletes, reads = Tally(), Tally(), Tally()
    fp = absent_total = 0
    bytes_per_row, wal_bytes_per_row, levels = [], [], []
    round_walls = {True: [], False: []}

    absent = ctx.set_up(
        lambda: absent_keys(
            np.random.default_rng(ctx.seed), size["ingest_absent"], np.empty(0, dtype=np.int64)
        )
    )

    geometry = FilterStore(SCHEMA, PARAMS, _store_config(size["ingest_level_buckets"]))
    start = perf_counter()
    round_index = 0
    while round_index < ctx.min_rounds or perf_counter() - start < ctx.seconds:
        traced = ctx.traced and round_index % 2 == 1
        keys, status, region = make_rows(rng, n + extra + n // 10)
        keep = ~np.isin(keys, absent) & distinguishable(geometry, keys, status, region)
        keys, status, region = keys[keep][: n + extra], status[keep][: n + extra], region[keep][: n + extra]
        root = ctx.tmp / f"ingest-{round_index}"
        round_start = perf_counter()
        wal_before = _wal_bytes()

        store = FilterStore(SCHEMA, PARAMS, _store_config(size["ingest_level_buckets"]))
        store.attach_wal(root, DurabilityConfig(fsync=FSYNC))
        with ctx.window("insert", traced):
            _insert_batches(store, keys[:n], status[:n], region[:n], inserts, ctx)
        with ctx.window("delete", traced):
            removed = _delete_batches(
                store, keys[:deleted], status[:deleted], region[:deleted], deletes, ctx
            )
        out.count("delete", deleted, deleted - removed)
        with ctx.window("maintenance", traced):
            t0 = perf_counter()
            scheduler = MaintenanceScheduler(store, MaintenancePolicy(seal_rows=1))
            steps = scheduler.run(max_steps=10_000)
            t["maintenance"].append(perf_counter() - t0)
        ctx.calibrate(inserts.samples)
        out.count("maintenance_converged", 1, 1 if scheduler.pending() else 0)
        with ctx.window("insert", traced):
            _insert_batches(store, keys[n:], status[n:], region[n:], inserts, ctx)
        wal_bytes_per_row.append((_wal_bytes() - wal_before) / (n + extra + deleted))
        _abandon(store)
        del store

        with ctx.window("recovery", traced):
            t0 = perf_counter()
            recovered = FilterStore.open(root)
            recovered.query_many(keys[deleted : deleted + 1])
            t["recovery"].append(perf_counter() - t0)
        # Lookups run against the recovered store's pages in memory, as a
        # served store's do: with pages faulted in from a shared disk, other
        # tenants' I/O would set the read figures.
        recovered.warm()
        ctx.calibrate(reads.samples)

        live = slice(deleted, n + extra)
        lookups = np.concatenate([keys[live], absent])
        with ctx.window("read", traced):
            answers = np.empty(len(lookups), dtype=bool)
            for i in range(0, len(lookups), READ_BATCH):
                t0 = perf_counter()
                answers[i : i + READ_BATCH] = recovered.query_many(lookups[i : i + READ_BATCH])
                reads.add(len(answers[i : i + READ_BATCH]), perf_counter() - t0)
                ctx.calibrate(reads.samples)
        live_n = n + extra - deleted
        out.count("recovered_lookup", live_n, int((~answers[:live_n]).sum()))
        fp += int(answers[live_n:].sum())
        absent_total += len(absent)
        attempted, failed = _row_oracle(recovered, keys[live], status[live], region[live])
        out.count("recovered_row_predicate", attempted, failed)
        bytes_per_row.append(recovered.size_in_bytes() / len(recovered))
        levels.append(recovered.num_levels / NUM_SHARDS)
        round_walls[traced].append(perf_counter() - round_start)
        del recovered
        shutil.rmtree(root, ignore_errors=True)
        round_index += 1
        out.record.setdefault("maintenance_steps", []).append(len(steps))

    read_times = [seconds for _, seconds in reads.steps]
    out.slowdowns = _phase_slowdowns(ctx, inserts.samples + deletes.samples, reads.samples)
    out.metrics = {
        "write_rows_per_s": (inserts.units + deletes.units) / (inserts.seconds + deletes.seconds),
        "read_keys_per_s": reads.rate,
        "read_mean_ms": trimmed_mean(read_times) * 1e3,
        "fpr": fp / absent_total,
        "bytes_per_row": median(bytes_per_row),
    }
    out.record.update(
        {
            "rounds": round_index,
            "rows_per_round": n + extra,
            "levels_per_shard": median(levels),
            "level_buckets": size["ingest_level_buckets"],
            "ingest_rows_per_s": inserts.rate,
            "delete_rows_per_s": deletes.rate,
            "write_batches": len(inserts.steps) + len(deletes.steps),
            "maintenance_s": median(t["maintenance"]),
            "recovery_s": median(t["recovery"]),
            "wal_bytes_per_row": median(wal_bytes_per_row),
            "read_latency": latency_summary(read_times),
            "absent_probes": absent_total,
            "steadiness": {
                "ingest_rows_per_s_by_third": steadiness(
                    inserts.thirds(), ctx.bounds["write_rows_per_s"]
                ),
                "read_keys_per_s_by_third": steadiness(
                    reads.thirds(), ctx.bounds["read_keys_per_s"]
                ),
            },
        }
    )
    if ctx.traced and round_walls[True] and round_walls[False]:
        out.overhead = median(round_walls[True]) / median(round_walls[False])
    return out


def _wal_bytes() -> float:
    return counter(obs.snapshot(), "repro_wal_bytes_total")


# ---------------------------------------------------------------------------
# serve and mixed: shared request generation
# ---------------------------------------------------------------------------


def _requests(rng, keys, status, region, absent, count, alpha=1.1) -> Requests:
    """Zipf(alpha) lookups over a universe of present and absent keys in
    random order; one request in four carries a registered predicate."""
    from repro.data.zipf import skewed_probe_indices

    universe = np.concatenate([keys, absent])
    present = np.concatenate([np.ones(len(keys), bool), np.zeros(len(absent), bool)])
    ustatus = np.concatenate([status, np.zeros(len(absent), status.dtype)])
    uregion = np.concatenate([region, np.zeros(len(absent), region.dtype)])
    order = rng.permutation(len(universe))
    index = order[
        skewed_probe_indices(count, len(universe), alpha, seed=int(rng.integers(1 << 31)))
    ]
    names = list(PREDICATES)
    carries = rng.random(count) < 0.25
    choice = rng.integers(0, len(names), size=count)
    predicates = [names[c] if p else None for p, c in zip(carries.tolist(), choice.tolist())]
    must_hit = present[index].copy()
    for j, name in enumerate(names):
        sel = carries & (choice == j)
        must_hit[sel] &= satisfies(name, ustatus[index[sel]], uregion[index[sel]])
    return Requests(
        keys=universe[index].tolist(),
        predicates=predicates,
        must_hit=must_hit.tolist(),
        absent=(~present[index]).tolist(),
    )


def _bulk_oracle(query, keys, status, region) -> tuple[int, int]:
    """(attempted, false negatives) for present rows through ``query``
    (key-only and under every registered predicate they satisfy)."""
    attempted = failed = 0
    answers = query(keys, None)
    attempted += len(keys)
    failed += int((~answers).sum())
    for name in PREDICATES:
        mask = satisfies(name, status, region)
        answers = query(keys[mask], name)
        attempted += int(mask.sum())
        failed += int((~answers).sum())
    return attempted, failed


class _PoolProbe:
    """Worker-side figures for a traced window: registry deltas through
    ``ServeRuntime.metrics()`` and worker probe time from the span rings."""

    def __init__(self, runtime: ServeRuntime) -> None:
        self.runtime = runtime
        self.deltas: list[tuple[dict, dict]] = []
        self.worker_busy_s = 0.0

    def begin(self) -> dict:
        self._drain_worker_spans()
        return self.runtime.metrics()

    def end(self, before: dict) -> None:
        self._drain_worker_spans(count=True)
        self.deltas.append((before, self.runtime.metrics()))

    def _drain_worker_spans(self, count: bool = False) -> None:
        self.runtime.pool.trace()
        for record in obs.RECORDER.drain():
            if count and record["name"] == "worker.probe" and record["pid"] != os.getpid():
                self.worker_busy_s += record["duration"]


def _start_runtime(store, root: Path) -> ServeRuntime:
    return ServeRuntime(
        store,
        root,
        num_workers=1,
        mode="process",
        predicates=PREDICATES,
        start_method="spawn",
    ).start()


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def serve(ctx: Context) -> Outcome:
    """Read-only point lookups: CoalescingFrontEnd -> WorkerPool (one
    process worker) -> mapped SEG1 snapshot of an uncompacted level stack.

    A closed loop of 64 clients gives the throughput; an open loop with
    Poisson arrivals well below the knee gives latency from each request's
    scheduled send.  The store's false-positive rate comes from a bulk probe
    of absent keys through the pool.
    """
    size = ctx.size
    n = size["serve_rows"]
    out = Outcome()
    builds = Tally()  # the store build's insert batches, over every set-up

    def build() -> dict:
        rng = np.random.default_rng(ctx.seed)
        keys, status, region = make_rows(rng, n)
        absent = absent_keys(rng, n, keys)
        state = {
            "rng": rng,
            "keys": keys,
            "status": status,
            "region": region,
            "requests": _requests(rng, keys, status, region, absent, 400_000),
        }
        store = FilterStore(SCHEMA, PARAMS, _store_config(size["serve_level_buckets"]))
        _insert_batches(store, keys, status, region, builds, ctx)
        state["store"] = store
        state["loop"] = asyncio.new_event_loop()
        root = ctx.tmp / f"serve-{len(ctx.setup_times)}"
        state["runtime"] = runtime = _start_runtime(store, root)
        state["frontend"] = frontend = runtime.frontend()
        state["loop"].run_until_complete(
            closed_loop(frontend, state["requests"], size["serve_clients"], 0.5, 0.5)
        )
        return state

    def close(state: dict) -> None:
        state["frontend"].close()
        state["loop"].close()
        state["runtime"].close()

    state = ctx.set_up(build, close)
    rng, keys, status, region = state["rng"], state["keys"], state["status"], state["region"]
    requests, store = state["requests"], state["store"]
    runtime, loop, frontend = state["runtime"], state["loop"], state["frontend"]
    try:
        bulk_absent = absent_keys(np.random.default_rng(ctx.seed + 3), size["serve_absent"], keys)
        probe = _PoolProbe(runtime) if ctx.traced else None
        out.record["levels"] = store.num_levels
        out.record["levels_per_shard"] = store.num_levels / NUM_SHARDS
        out.record["level_buckets"] = size["serve_level_buckets"]

        window_s = size["window_s"]
        clients, rate = size["serve_clients"], size["serve_rate"]
        # Past the set-up's short warm-up: the worker's first seconds of
        # traffic still fault in snapshot pages and fill its caches.
        loop.run_until_complete(closed_loop(frontend, requests, clients, WARM_S, WARM_S))
        # Closed and open windows alternate, so a burst of contention from
        # other tenants lands on both phases alike.
        window_samples: list[float] = []
        closed = _windows()
        opened = _windows()
        for i in range(max(2, int(round(ctx.seconds / (1.5 * window_s))))):
            traced = ctx.traced and i % 2 == 1
            _window(ctx, loop, "closed_loop", traced, probe, closed,
                    closed_loop(frontend, requests, clients, window_s / 2, window_s / 2))
            _window(ctx, loop, "open_loop", traced, probe, opened,
                    open_loop(frontend, requests, rate, window_s, rng, window_s))
            ctx.calibrate(window_samples, count=8, every=0.0)  # every request has returned

        if ctx.traced:
            out.layers.update(_harness_floor(loop, requests, rate, rng, window_s))

        t0 = perf_counter()
        fpr_answers = runtime.query_many(bulk_absent)
        bulk_s = perf_counter() - t0
        attempted, failed = _bulk_oracle(runtime.query_many, keys, status, region)
    finally:
        close(state)

    all_results = closed["results"] + opened["results"]
    for result in all_results:
        out.count("request", result.attempted, result.failed)
    out.count("bulk_present", attempted, failed)
    lat = latency_summary([x for r in opened["results"] for x in r.latencies])
    completed = sum(r.completed for r in closed["results"])
    closed_wall = sum(r.elapsed for r in closed["results"])
    traffic_absent = sum(r.absent for r in all_results)
    traffic_fp = sum(r.absent_true for r in all_results)
    # The build ran during set-up and the reads in the windows.
    out.slowdowns = _phase_slowdowns(ctx, builds.samples, window_samples)
    out.metrics = {
        "write_rows_per_s": builds.rate,
        "read_keys_per_s": completed / closed_wall,
        "read_mean_ms": trimmed_mean([x for r in opened["results"] for x in r.latencies]) * 1e3,
        "fpr": float(fpr_answers.mean()),
        "bytes_per_row": store.size_in_bytes() / len(store),
    }
    lateness = [x for r in opened["results"] for x in r.lateness]
    if lateness:
        out.layers["harness.late_p99_ms"] = float(np.percentile(lateness, 99)) * 1e3
    out.record.update(
        {
            "rows": n,
            "query_rps": out.metrics["read_keys_per_s"],
            "open_loop_rate": size["serve_rate"],
            "clients": size["serve_clients"],
            "query_latency": lat,
            "traffic_fpr": traffic_fp / traffic_absent if traffic_absent else None,
            "bulk_fpr_probes": len(bulk_absent),
            "bulk_probe_keys_per_s": len(bulk_absent) / bulk_s,
            "steadiness": {
                "closed_loop_rps": steadiness(closed["rates"], ctx.bounds["read_keys_per_s"]),
                "open_loop_completions_per_s": steadiness(opened["rates"], ctx.bounds["read_keys_per_s"]),
            },
        }
    )
    if probe is not None:
        _pool_layers(out, probe, ctx.ledger)
        out.overhead = _overhead(closed)
    return out


def _harness_floor(loop, requests: Requests, rate: float, rng, window_s: float) -> dict:
    """Open-loop traffic for 2 s through a front end over a backend that
    answers instantly: its median latency is the floor no program change
    removes, and the generator's p99 lateness qualifies every open loop."""
    null_fe = CoalescingFrontEnd(NullBackend(), predicates=(None, *PREDICATES))
    try:
        floor = loop.run_until_complete(open_loop(null_fe, requests, rate, 2.0, rng, window_s))
    finally:
        null_fe.close()
    return {
        "harness.floor_ms": latency_summary(floor.latencies).get("p50_ms", 0.0),
        "harness.late_p99_ms": float(np.percentile(floor.lateness, 99)) * 1e3 if floor.lateness else 0.0,
    }


def _windows() -> dict:
    """Per-window results, rates and traced flags of one load phase."""
    return {"results": [], "rates": [], "traced": []}


def _window(ctx, loop, phase, traced, probe, windows: dict, load) -> None:
    """Run the ``load`` coroutine as one window of ``phase``, traced or not,
    and append its result to ``windows``."""
    before = probe.begin() if traced and probe is not None else None
    with ctx.window(phase, traced):
        result = loop.run_until_complete(load)
    if before is not None:
        probe.end(before)
    windows["results"].append(result)
    windows["rates"].append(result.completed / result.elapsed)
    windows["traced"].append(traced)


def _overhead(windows: dict) -> float | None:
    """Traced wall per completed request over untraced wall per request."""
    traced = [r for r, t in zip(windows["rates"], windows["traced"]) if t]
    plain = [r for r, t in zip(windows["rates"], windows["traced"]) if not t]
    if not traced or not plain:
        return None
    return median(plain) / median(traced)


def _pool_layers(out: Outcome, probe: _PoolProbe, ledger: Ledger) -> None:
    """Worker-side per-layer figures from the traced windows."""
    deltas: dict = {}
    for before, after in probe.deltas:
        for name in ("repro_kernel_seconds_total", "repro_kernel_calls_total"):
            for kernel, value in counter_by(after, name, "kernel").items():
                prior = counter_by(before, name, "kernel").get(kernel, 0.0)
                deltas[(name, kernel)] = deltas.get((name, kernel), 0.0) + value - prior
        for name in ("repro_probe_misses_total", "repro_store_refresh_levels_total"):
            deltas[name] = deltas.get(name, 0.0) + counter(after, name) - counter(before, name)
        for outcome in ("reused", "attached"):
            key = ("refresh", outcome)
            deltas[key] = deltas.get(key, 0.0) + counter(
                after, "repro_store_refresh_levels_total", outcome=outcome
            ) - counter(before, "repro_store_refresh_levels_total", outcome=outcome)
        hits_after = counter_by(after, "repro_probe_hits_total", "level")
        hits_before = counter_by(before, "repro_probe_hits_total", "level")
        for level, value in hits_after.items():
            key = ("hits", level)
            deltas[key] = deltas.get(key, 0.0) + value - hits_before.get(level, 0.0)
        for stage in ("coalesce", "dispatch", "scatter", "total"):
            d = hist_delta(
                hist(after, "repro_request_us", stage=stage),
                hist(before, "repro_request_us", stage=stage),
            )
            prev = deltas.get(("stage", stage))
            deltas[("stage", stage)] = d if prev is None else _hist_sum(prev, d)
        d = hist_delta(hist(after, "repro_frontend_batch_size"), hist(before, "repro_frontend_batch_size"))
        prev = deltas.get("batch")
        deltas["batch"] = d if prev is None else _hist_sum(prev, d)
    out.registry_delta = deltas
    out.layers["serve.pool.worker_busy_s"] = probe.worker_busy_s


def _hist_sum(a: dict, b: dict) -> dict:
    buckets = dict(a["buckets"])
    for bound, n in b["buckets"].items():
        buckets[bound] = buckets.get(bound, 0) + n
    return {"count": a["count"] + b["count"], "sum": a["sum"] + b["sum"],
            "max": max(a["max"], b["max"]), "buckets": buckets}


# ---------------------------------------------------------------------------
# mixed
# ---------------------------------------------------------------------------


def _space_and_fpr(snapshot: Path, absent: np.ndarray, batches: int) -> dict:
    """Bytes per live row and false-positive rate on ``absent`` keys of the
    writer store as snapshotted at a fixed batch count of the stream: every
    publish and maintenance step before it happens at a fixed batch, so the
    store is the same whatever the box's speed.  The probe runs after the
    timed phase, where it cannot hand the readers a quiet second."""
    store = FilterStore.open(snapshot)
    return {
        "batches": batches,
        "bytes_per_row": store.size_in_bytes() / len(store),
        "fpr": float(store.query_many(absent).mean()),
        "levels_per_shard": store.num_levels / NUM_SHARDS,
    }


def mixed(ctx: Context) -> Outcome:
    """Reads beside writes.

    A durable writer preloaded with rows sits in a ServeRuntime with
    budgeted maintenance.  The main thread streams 10k-row insert and delete
    batches as fast as it can and publishes an epoch every few batches; a
    reader thread runs an asyncio closed loop of point lookups against the
    published epochs (closed, because an open loop's latency under this GIL
    contention flips between backlog regimes from run to run).  Readers ask
    only for preloaded rows (the writer never deletes them) and absent keys,
    so the oracle holds in every epoch.
    """
    size = ctx.size
    n = size["mixed_rows"]
    out = Outcome()

    def build() -> dict:
        rng = np.random.default_rng(ctx.seed)
        keys, status, region = make_rows(rng, n)
        absent = absent_keys(rng, n, keys)
        requests = _requests(rng, keys, status, region, absent, 200_000)
        s_keys, s_status, s_region = make_rows(rng, int(ctx.seconds * 35_000) + 4 * BATCH_ROWS)
        store = FilterStore(SCHEMA, PARAMS, _store_config(size["mixed_level_buckets"]))
        fresh = ~np.isin(s_keys, np.concatenate([keys, absent])) & distinguishable(
            store, s_keys, s_status, s_region, taken=filter_signatures(store, keys, status, region)
        )
        s_keys, s_status, s_region = s_keys[fresh], s_status[fresh], s_region[fresh]
        index = len(ctx.setup_times)
        store.attach_wal(ctx.tmp / f"mixed-writer-{index}", DurabilityConfig(fsync=FSYNC))
        _insert_batches(store, keys, status, region)
        # Start from a maintained store: the timed phase then sees only the
        # maintenance its own writes cause.
        MaintenanceScheduler(store).run(max_steps=10_000)
        runtime = _start_runtime(store, ctx.tmp / f"mixed-{index}")
        runtime.install_maintenance(MaintenanceScheduler(store), steps_per_publish=4)
        return {
            "rows": (keys, status, region),
            "stream": (s_keys, s_status, s_region),
            "requests": requests,
            "store": store,
            "runtime": runtime,
        }

    def close(state: dict) -> None:
        state["runtime"].close()
        _abandon(state["store"])

    state = ctx.set_up(build, close)
    keys, status, region = state["rows"]
    s_keys, s_status, s_region = state["stream"]
    requests, store, runtime = state["requests"], state["store"], state["runtime"]
    bulk_absent = absent_keys(
        np.random.default_rng(ctx.seed + 3), size["mixed_absent"], np.concatenate([keys, s_keys])
    )
    probe = _PoolProbe(runtime) if ctx.traced else None

    reader: dict = {}
    clients = size["mixed_clients"]

    def read_thread() -> None:
        loop = asyncio.new_event_loop()
        try:
            async def body():
                fe = runtime.frontend()
                try:
                    # Warm the reader path before the writer starts.
                    await closed_loop(fe, requests, clients, 0.5, 0.5)
                    readers_ready.set()
                    return await closed_loop(fe, requests, clients, ctx.seconds, size["window_s"])
                finally:
                    readers_ready.set()
                    fe.close()

            reader["result"] = loop.run_until_complete(body())
        except BaseException as exc:  # reported as failures below
            reader["error"] = repr(exc)
        finally:
            loop.close()

    readers_ready = threading.Event()
    thread = threading.Thread(target=read_thread, name="perfbench-readers")
    writes = Tally()
    publish_s: list[float] = []
    window_rows: list[float] = []
    window_traced: list[bool] = []
    cursor = 0
    live_from = 0  # stream rows [live_from, cursor) are inserted and not deleted
    batches = 0
    fixed_point: tuple[int, Path] | None = None  # (batches, snapshot)
    space: list[float] = []  # bytes per live row at each publish up to the fixed point
    try:
        thread.start()
        readers_ready.wait(timeout=60)
        start = perf_counter()
        window_s = size["window_s"]
        window_index = 0
        while perf_counter() - start < ctx.seconds:
            traced = ctx.traced and window_index % 2 == 1
            before = probe.begin() if traced else None
            w_start = perf_counter()
            w_rows = 0
            with ctx.window("writer", traced):
                while perf_counter() - w_start < window_s and cursor + BATCH_ROWS <= len(s_keys):
                    sl = slice(cursor, cursor + BATCH_ROWS)
                    t0 = perf_counter()
                    runtime.insert_many(s_keys[sl], [s_status[sl], s_region[sl]])
                    rows = BATCH_ROWS
                    if cursor - live_from >= 2 * BATCH_ROWS:
                        dl = slice(live_from, live_from + BATCH_ROWS)
                        removed = runtime.delete_many(s_keys[dl], [s_status[dl], s_region[dl]])
                        out.count("delete", BATCH_ROWS, int((~removed).sum()))
                        live_from += BATCH_ROWS
                        rows += BATCH_ROWS
                    writes.add(rows, perf_counter() - t0)
                    w_rows += rows
                    cursor += BATCH_ROWS
                    batches += 1
                    if batches % size["mixed_publish_every"] == 0:
                        t0 = perf_counter()
                        runtime.publish()
                        publish_s.append(perf_counter() - t0)
                        # Traced runs report no end-to-end figures: keep
                        # these probes out of their layer tables.
                        if batches <= size["mixed_probe_at"] and not ctx.traced:
                            space.append(store.size_in_bytes() / len(store))
                    if batches == size["mixed_probe_at"] and not ctx.traced:
                        fixed_point = (batches, store.snapshot(ctx.tmp / "mixed-fixed-point"))
                    ctx.calibrate(writes.samples)
            if before is not None:
                probe.end(before)
            window_rows.append(w_rows / (perf_counter() - w_start))
            window_traced.append(traced)
            window_index += 1
        thread.join(timeout=ctx.seconds + 60)
        if thread.is_alive():
            raise RuntimeError("reader thread did not finish")
        if ctx.traced:
            floor_loop = asyncio.new_event_loop()
            try:
                out.layers.update(_harness_floor(
                    floor_loop, requests, MIXED_FLOOR_RATE, np.random.default_rng(ctx.seed + 4),
                    size["window_s"],
                ))
            finally:
                floor_loop.close()
        runtime.publish()
        if fixed_point is None:  # the writer never got that far
            fixed_point = (batches, store.snapshot(ctx.tmp / "mixed-fixed-point"))
        fixed_point = _space_and_fpr(fixed_point[1], bulk_absent, fixed_point[0])
        attempted, failed = _bulk_oracle(runtime.query_many, keys, status, region)
        live = slice(live_from, cursor)
        l_attempted, l_failed = _bulk_oracle(runtime.query_many, s_keys[live], s_status[live], s_region[live])
        out.record["levels_per_shard"] = store.num_levels / NUM_SHARDS
    finally:
        thread.join(timeout=5)
        close(state)

    result: LoadResult | None = reader.get("result")
    if result is None:
        out.count("reader_thread", 1, 1)
        out.record["reader_error"] = reader.get("error")
        result = LoadResult()
    out.count("request", result.attempted, result.failed)
    out.count("bulk_preloaded", attempted, failed)
    out.count("bulk_stream_live", l_attempted, l_failed)
    lat = latency_summary(result.latencies)
    # Readers and the writer run at once: both are read at its samples.
    out.slowdowns = _phase_slowdowns(ctx, writes.samples, writes.samples)
    out.metrics = {
        "write_rows_per_s": writes.rate,
        "read_keys_per_s": result.completed / result.elapsed if result.elapsed else 0.0,
        "read_mean_ms": trimmed_mean(result.latencies) * 1e3,
        "fpr": fixed_point["fpr"],
        "bytes_per_row": float(np.mean(space)) if space else fixed_point["bytes_per_row"],
    }
    out.record.update(
        {
            "space_and_fpr_at": fixed_point,
            "preload_rows": n,
            "read_clients": clients,
            "publish_every_batches": size["mixed_publish_every"],
            "publish_s": median(publish_s) if publish_s else None,
            "publishes": len(publish_s),
            "query_latency": lat,
            "steadiness": {
                "writer_rows_per_s": steadiness(window_rows, ctx.bounds["write_rows_per_s"]),
                "reader_completions_per_s": steadiness(
                    [c / size["window_s"] for c in result.window_counts], ctx.bounds["read_keys_per_s"]
                ),
            },
        }
    )
    if probe is not None:
        _pool_layers(out, probe, ctx.ledger)
        traced = [r for r, t in zip(window_rows, window_traced) if t]
        plain = [r for r, t in zip(window_rows, window_traced) if not t]
        if traced and plain:
            out.overhead = median(plain) / median(traced)
    return out


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------

JOIN_KINDS = ("chained", "bloom", "mixed")
#: 70-query JOB-light workloads probed per run.
JOIN_QUERY_SETS = 2
#: Absent keys probed per (bundle, table) for the filters' false-positive rate.
JOIN_ABSENT = 100_000


def join(ctx: Context) -> Outcome:
    """JOB-light on the synthetic IMDb: build the chained, bloom and mixed
    CCF bundles (LARGE_PARAMS) plus the key-only cuckoo baseline, then probe
    every (query, base table) instance's base keys with compile +
    query_many.  Every key in the exact (binned) semijoin must pass."""
    from repro.data.imdb import generate_imdb
    from repro.join.job_light import make_job_light_workload
    from repro.join.reduction import YearBinning, build_cuckoo_baseline, build_filter_bundle

    out = Outcome()
    def build() -> tuple:
        dataset = generate_imdb(scale=ctx.size["join_scale"], seed=ctx.seed)
        # Several 70-query workloads per run: more (query, base table)
        # instances make the probe figures steadier than one workload's.
        queries = [
            query
            for k in range(JOIN_QUERY_SETS)
            for query in make_job_light_workload(dataset, seed=ctx.seed * JOIN_QUERY_SETS + k)
        ]
        binning = YearBinning(dataset)
        augmented = {
            table: binning.augment(dataset.table(table)) if table == "title" else dataset.table(table)
            for table in dataset.tables
        }
        t0 = perf_counter()
        instances = []
        for query in queries:
            for base_ref in query.tables:
                relation = augmented[base_ref.table]
                mask = base_ref.predicate.mask(relation.columns)
                m_predicate = int(mask.sum())
                others = query.others(base_ref.table)
                if m_predicate == 0 or not others:
                    instances.append(None)
                    continue
                base_keys = relation.column(dataset.join_key(base_ref.table))[mask]
                unique_keys, inverse = np.unique(base_keys, return_inverse=True)
                binned = np.ones(len(unique_keys), dtype=bool)
                exact = np.ones(len(unique_keys), dtype=bool)
                for other in others:
                    other_rel = augmented[other.table]
                    key_col = other_rel.column(dataset.join_key(other.table))
                    exact &= np.isin(unique_keys, np.unique(key_col[other.predicate.mask(other_rel.columns)]))
                    pred = binning.rewrite(other.predicate) if other.table == "title" else other.predicate
                    binned &= np.isin(unique_keys, np.unique(key_col[pred.mask(other_rel.columns)]))
                instances.append((unique_keys, inverse, others, exact, binned, m_predicate))
        exact_s = perf_counter() - t0
        rows = sum(len(dataset.table(t).column(dataset.join_key(t))) for t in dataset.tables)
        return dataset, instances, exact_s, rows

    dataset, instances, exact_s, rows = ctx.set_up(build)
    ledger = ctx.ledger

    probe_s = 0.0
    builds, calls = Tally(), Tally()  # bundle builds; compile + query_many probe calls
    kept = {kind: 0 for kind in (*JOIN_KINDS, "cuckoo")}
    fp = negatives = 0
    predicate_total = binned_total = 0
    bundle_bytes: list[float] = []
    round_walls = {True: [], False: []}
    start = perf_counter()
    round_index = 0
    while round_index < ctx.min_rounds or perf_counter() - start < ctx.seconds:
        traced = ctx.traced and round_index % 2 == 1
        round_start = perf_counter()
        with ctx.window("build", traced):
            bundles = []
            for kind in JOIN_KINDS:
                t0 = perf_counter()
                bundles.append(build_filter_bundle(dataset, kind, LARGE_PARAMS, name=kind))
                builds.add(rows, perf_counter() - t0)
                ctx.calibrate(builds.samples)
            cuckoo = build_cuckoo_baseline(dataset)
        bundle_bytes.append(sum(b.total_size_bits() / 8 for b in bundles) / (rows * len(bundles)))
        with ctx.window("probe", traced):
            t0 = perf_counter()
            for inst in instances:
                if inst is None:
                    continue
                unique_keys, inverse, others, exact, binned, m_predicate = inst
                passes = {}
                with ledger.span("join.probe") if ledger else nullcontext():
                    for bundle in bundles:
                        ok = np.ones(len(unique_keys), dtype=bool)
                        for other in others:
                            c0 = perf_counter()
                            ccf = bundle.ccfs[other.table]
                            compiled = ccf.compile(bundle.query_predicate(other.table, other.predicate))
                            ok &= ccf.query_many(unique_keys, compiled)
                            calls.add(len(unique_keys), perf_counter() - c0)
                            ctx.calibrate(calls.samples)
                        passes[bundle.name] = ok
                    ok = np.ones(len(unique_keys), dtype=bool)
                    for other in others:
                        ok &= cuckoo[other.table].contains_many(unique_keys)
                    passes["cuckoo"] = ok
                for name, ok in passes.items():
                    required = exact if name == "cuckoo" else binned
                    out.count(f"semijoin_{name}", int(required.sum()), int((required & ~ok).sum()))
                    kept[name] += int(ok[inverse].sum())
                    if name != "cuckoo":
                        fp += int((ok & ~binned).sum())
                        negatives += int((~binned).sum())
                predicate_total += m_predicate
                binned_total += int(binned[inverse].sum())
            probe_s += perf_counter() - t0
        wall = perf_counter() - round_start
        round_walls[traced].append(wall)
        round_index += 1

    # False positives of the last round's filters on keys absent from their
    # table: a fixed, large sample, where the semijoin's false-positive share
    # follows the seed's query mix.
    absent_rng = np.random.default_rng(ctx.seed + 2)
    absent_true = absent_probed = 0
    for table in dataset.tables:
        present = np.asarray(dataset.table(table).column(dataset.join_key(table)), dtype=np.int64)
        absent = absent_keys(absent_rng, JOIN_ABSENT, present)
        for bundle in bundles:
            absent_true += int(bundle.ccfs[table].query_many(absent).sum())
            absent_probed += len(absent)

    call_times = [seconds for _, seconds in calls.steps]
    out.slowdowns = _phase_slowdowns(ctx, builds.samples, calls.samples)
    out.metrics = {
        "write_rows_per_s": builds.rate,
        "read_keys_per_s": calls.rate,
        "read_mean_ms": trimmed_mean(call_times) * 1e3,
        "fpr": absent_true / absent_probed,
        "bytes_per_row": median(bundle_bytes),
    }
    rf = {name: kept[name] / predicate_total for name in kept}
    out.layers["join.exact_s"] = exact_s
    if ledger is not None:
        traced_rounds = len(round_walls[True])
        made = ledger.totals().get("ccf.make", {}).get("calls", 0)
        out.layers["ccf.build.retries"] = made - traced_rounds * len(JOIN_KINDS) * len(dataset.tables)
    out.layers["join.instances"] = sum(1 for inst in instances if inst is not None)
    out.record.update(
        {
            "scale": ctx.size["join_scale"],
            "rows": rows,
            "instances": len(instances),
            "rounds": round_index,
            "build_rows_per_s": builds.rate,
            "probe_keys_per_s": calls.units / probe_s,
            "query_sets": JOIN_QUERY_SETS,
            "join_rf": sum(rf[k] for k in JOIN_KINDS) / len(JOIN_KINDS),
            "semijoin_fpr": fp / negatives if negatives else 0.0,
            "absent_probes": absent_probed,
            "rf": {**rf, "exact_binned": binned_total / predicate_total},
            "probe_latency": latency_summary(call_times),
            "steadiness": {
                "build_rows_per_s_by_third": steadiness(
                    builds.thirds(), ctx.bounds["write_rows_per_s"]
                ),
                "probe_keys_per_s_by_third": steadiness(
                    calls.thirds(), ctx.bounds["read_keys_per_s"]
                ),
            },
        }
    )
    if ctx.traced and round_walls[True] and round_walls[False]:
        out.overhead = median(round_walls[True]) / median(round_walls[False])
    return out


WORKLOADS = {"ingest": ingest, "serve": serve, "mixed": mixed, "join": join}
