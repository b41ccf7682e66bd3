#!/usr/bin/env python3
"""Layer-ledger benchmark for the conditional-cuckoo-filter store.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke            # every workload, seconds-scale

``--trace 0`` measures the end-to-end metrics with the benchmark's own
tracing off.  ``--trace 1`` installs the layer ledger (perfbench/ledger.py)
and reports the per-layer metrics instead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full record (provenance, per-phase
layer tables, steadiness windows, workload-specific figures).
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Per-layer metrics (``--trace 1``), in the order BENCHMARK.json lists them.
KERNEL_NAMES = ("pair_eq", "wave_kick", "plan_bulk_placement", "delete_plan", "grouped_ranks")

#: End-to-end timing metrics, reported at the reference machine speed
#: (common.MachineSpeed); the record keeps the raw values.
RATES = ("write_rows_per_s", "read_keys_per_s")
DURATIONS = ("setup_s", "read_mean_ms")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("ingest", "serve", "mixed", "join"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check every workload at smoke size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    return args


def _import_program() -> None:
    """Put the program's sources on the path; fail loudly if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {src}")
    sys.path[:0] = [str(src), str(HERE)]


def _spec() -> dict:
    if not SPEC_PATH.is_file():
        raise SystemExit(f"perfbench: {SPEC_PATH.name} not found at the repository root")
    return json.loads(SPEC_PATH.read_text())


def _per_layer(outcome, ledger, record: dict) -> dict[str, float]:
    """Assemble the per-layer metrics from the ledger, the program's
    counters over traced windows, and the pool's exported registry."""
    totals = ledger.totals()

    def self_s(layer: str) -> float:
        return totals.get(layer, {}).get("self_s", 0.0)

    def field(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0.0)

    pool = outcome.registry_delta
    values: dict[str, float] = {"hashing.busy_s": self_s("hashing")}
    for kernel in KERNEL_NAMES:
        values[f"kernels.{kernel}.busy_s"] = self_s(f"kernels.{kernel}") + pool.get(
            ("repro_kernel_seconds_total", kernel), 0.0
        )
        values[f"kernels.{kernel}.calls"] = field(f"kernels.{kernel}", "calls") + pool.get(
            ("repro_kernel_calls_total", kernel), 0.0
        )
    insert_rows = field("ccf.insert", "units")
    values["kernels.relocations_per_row"] = (
        ledger.counted("repro_wave_relocations_total") / insert_rows if insert_rows else 0.0
    )
    values["ccf.insert.busy_s"] = self_s("ccf.insert")
    values["ccf.insert.rows"] = insert_rows
    values["ccf.delete.busy_s"] = self_s("ccf.delete")
    values["ccf.query.busy_s"] = self_s("ccf.query") + self_s("ccf.row_present")
    values["ccf.compile.busy_s"] = self_s("ccf.compile")
    values["ccf.build.retries"] = outcome.layers.get("ccf.build.retries", 0.0)
    values["ccf.stash_spills"] = ledger.counted("repro_wave_stash_spills_total")
    values["store.route.busy_s"] = self_s("store.route")
    for op in ("insert", "delete", "query"):
        values[f"store.shard.{op}.busy_s"] = self_s(f"store.shard.{op}")
    values["store.shard.dedup.busy_s"] = self_s("store.shard.dedup")
    values["store.shard.dedup.incl_s"] = field("store.shard.dedup", "incl_s")
    candidates = field("ccf.row_present", "calls")
    values["store.shard.dedup.candidates"] = candidates
    values["store.shard.dedup.useful_frac"] = (
        field("ccf.row_present", "units") / candidates if candidates else 0.0
    )
    hits = {key: value for key, value in pool.items() if isinstance(key, tuple) and key[0] == "hits"}
    depth_hits = {int(level): value for (_, level), value in hits.items()}
    misses = pool.get("repro_probe_misses_total", 0.0)
    if not depth_hits and not misses:
        for (family, labels), value in ledger.registry.items():
            if family == "repro_probe_hits_total":
                level = int(dict(labels)["level"])
                depth_hits[level] = depth_hits.get(level, 0.0) + value
        misses = ledger.counted("repro_probe_misses_total")
    lookups = sum(depth_hits.values()) + misses
    depth = record.get("levels_per_shard", 1.0)
    values["store.shard.levels_per_lookup"] = (
        (sum((d + 1) * v for d, v in depth_hits.items()) + misses * depth) / lookups
        if lookups
        else 0.0
    )
    values["store.shard.level_rolls"] = ledger.counted("repro_store_level_rolls_total")
    values["store.wal.append.busy_s"] = self_s("store.wal.append")
    values["store.wal.bytes"] = ledger.counted("repro_wal_bytes_total")
    values["store.wal.fsyncs"] = ledger.counted("repro_wal_fsyncs_total")
    values["store.wal.fsync_s"] = ledger.counted("repro_wal_fsync_us:sum") / 1e6
    values["store.wal.replay.busy_s"] = self_s("store.wal.replay")
    values["store.wal.replay.incl_s"] = field("store.wal.replay", "incl_s")
    values["store.wal.replay.rows"] = ledger.counted("repro_wal_replay_rows_total")
    values["store.compaction.busy_s"] = self_s("store.compaction")
    values["store.compaction.incl_s"] = field("store.compaction", "incl_s")
    values["store.compaction.entries"] = ledger.counted("repro_store_compaction_entries_total")
    values["store.compaction.bytes_rewritten"] = ledger.counted("repro_store_compaction_bytes_total")
    values["store.maintenance.steps"] = ledger.counted("repro_store_maintenance_steps_total")
    values["store.maintenance.busy_s"] = self_s("store.maintenance")
    values["store.maintenance.incl_s"] = field("store.maintenance", "incl_s")
    values["store.maintenance.stall_max_s"] = field("store.maintenance", "max_s")
    values["store.checkpoint.busy_s"] = self_s("store.checkpoint")
    values["store.segments.write.busy_s"] = self_s("store.segments.write")
    values["store.segments.write.bytes"] = field("store.segments.write", "units")
    values["store.segments.open.busy_s"] = self_s("store.segments.open") + self_s("store.open")

    from common import hist_quantile_ms

    for stage in ("coalesce", "dispatch", "scatter"):
        sample = pool.get(("stage", stage))
        values[f"serve.frontend.{stage}_p50_ms"] = hist_quantile_ms(sample, 0.5) if sample else 0.0
        values[f"serve.frontend.{stage}_p99_ms"] = hist_quantile_ms(sample, 0.99) if sample else 0.0
    batch = pool.get("batch")
    values["serve.frontend.batch_mean"] = batch["sum"] / batch["count"] if batch and batch["count"] else 0.0
    values["serve.frontend.busy_s"] = self_s("serve.frontend")
    total = pool.get(("stage", "total"))
    values["serve.server_total_p99_ms"] = hist_quantile_ms(total, 0.99) if total else 0.0
    calls = field("serve.pool", "calls")
    roundtrip = field("serve.pool", "incl_s")
    worker = outcome.layers.get("serve.pool.worker_busy_s", 0.0)
    values["serve.pool.roundtrip_ms"] = roundtrip / calls * 1e3 if calls else 0.0
    values["serve.pool.worker_busy_s"] = worker
    values["serve.pool.ipc_ms"] = (roundtrip - worker) / calls * 1e3 if calls else 0.0
    values["serve.runtime.busy_s"] = self_s("serve.runtime")
    values["serve.runtime.snapshot_s"] = field("store.snapshot", "incl_s")
    values["serve.runtime.warm_s"] = field("serve.runtime.warm", "incl_s")
    values["serve.runtime.refresh_s"] = field("serve.runtime.refresh", "incl_s")
    reused = pool.get(("refresh", "reused"), 0.0)
    attached = pool.get(("refresh", "attached"), 0.0)
    values["serve.runtime.levels_reused_frac"] = (
        reused / (reused + attached) if reused + attached else 0.0
    )
    values["serve.locks.read_wait_s"] = self_s("serve.locks.read")
    values["serve.locks.write_wait_s"] = self_s("serve.locks.write")
    values["join.exact_s"] = outcome.layers.get("join.exact_s", 0.0)
    values["join.probe.busy_s"] = self_s("join.probe")
    values["join.instances"] = outcome.layers.get("join.instances", 0.0)
    values["harness.floor_ms"] = outcome.layers.get("harness.floor_ms", 0.0)
    values["harness.late_p99_ms"] = outcome.layers.get("harness.late_p99_ms", 0.0)
    tables = ledger.phase_tables()
    values["unattributed_s"] = sum(t["rows_s"]["unattributed_s"] for t in tables.values())
    values["traced_wall_s"] = sum(t["wall_s"] for t in tables.values())
    values["tracing_overhead"] = outcome.overhead or 0.0
    return values


def run_workload(
    args: argparse.Namespace, spec: dict, size: str = "full", setups: int | None = None
) -> tuple[dict, dict]:
    """One run: returns (full record, final result line)."""
    from common import provenance
    from ledger import Ledger
    from workloads import FSYNC, SETUPS, SIZES, WORKLOADS, Context

    if setups is None:
        setups = SETUPS[args.workload]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    ledger = Ledger().install() if args.trace else None
    try:
        ctx = Context(
            seed=args.seed,
            seconds=args.seconds,
            size=SIZES[size],
            tmp=tmp,
            ledger=ledger,
            bounds=bounds,
            setups=setups,
        )
        outcome = WORKLOADS[args.workload](ctx)
        if not ctx.speed.samples:  # traced runs calibrate only here
            ctx.speed.sample(8)
    finally:
        if ledger is not None:
            ledger.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    setup_s = median(ctx.setup_times)
    record = {
        "provenance": provenance(args.seed, args.workload, FSYNC),
        "size": size,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_times_s": ctx.setup_times,
        "machine_slowdown": ctx.speed.slowdown,
        "calibration_samples": len(ctx.speed.samples),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_frac": outcome.failed / max(1, outcome.attempted),
        "checks": outcome.checks,
        **outcome.record,
    }
    if args.trace:
        metrics_spec = spec["per_layer"]
        values = _per_layer(outcome, ledger, record)
        record["phases"] = ledger.phase_tables()
        record["ledger_totals"] = ledger.totals()
    else:
        metrics_spec = spec["end_to_end"]
        raw = {"setup_s": setup_s, **outcome.metrics}
        phases = {"setup_s": ctx.setup_slowdown, **outcome.slowdowns}
        slowdowns = {name: phases.get(name) or ctx.speed.slowdown for name in raw}
        values = {
            name: value * slowdowns[name] if name in RATES
            else value / slowdowns[name] if name in DURATIONS else value
            for name, value in raw.items()
        }
        record["slowdowns"] = {name: slowdowns[name] for name in (*RATES, *DURATIONS)}
        record["end_to_end_raw"] = raw
        record["end_to_end"] = values
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in metrics_spec
    }
    if args.trace:
        record["per_layer"] = {name: m["value"] for name, m in metrics.items()}
    final = {
        "correct": outcome.failed == 0,
        "attempted": int(max(1, outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    return record, final


def smoke(args: argparse.Namespace, spec: dict) -> int:
    """Seconds-scale run of every workload, traced and not: every metric
    must be emitted with its name and unit, and nothing may fail."""
    problems = []
    for workload in ("ingest", "serve", "mixed", "join"):
        for trace in (0, 1):
            run_args = argparse.Namespace(
                workload=workload, seed=args.seed, seconds=2.0, trace=trace
            )
            record, final = run_workload(run_args, spec, size="smoke", setups=1)
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            for m in expected:
                got = final["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload}/trace{trace}: {m['name']} missing or wrong unit")
            if set(final["metrics"]) != {m["name"] for m in expected}:
                problems.append(f"{workload}/trace{trace}: unexpected metric names")
            if final["failed"] or not final["correct"]:
                problems.append(f"{workload}/trace{trace}: fail_frac {record['fail_frac']}")
            if trace:
                for phase, table in record["phases"].items():
                    if abs(table["conservation"] - 1.0) > 0.05:
                        problems.append(
                            f"{workload}: phase {phase} conserves {table['conservation']}"
                        )
            print(
                json.dumps(
                    {"workload": workload, "trace": trace, "failed": final["failed"],
                     "metrics": {k: v["value"] for k, v in final["metrics"].items()}}
                ),
                flush=True,
            )
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def _reap_children() -> None:
    """Stop and wait for every process this run started: pool workers a
    failed close left behind, then multiprocessing's resource tracker,
    which otherwise outlives the run until it sees its pipe close."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    spec = _spec()
    _import_program()
    # A terminated run still unwinds, so the finally below reaps children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if args.smoke:
            return smoke(args, spec)
        try:
            record, final = run_workload(args, spec)
        except Exception:  # noqa: BLE001 - report and exit non-zero, no result line
            traceback.print_exc()
            return 1
    finally:
        _reap_children()
    print(json.dumps(record, default=float))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
