"""``python -m repro.store``: operational tooling for FilterStore snapshots.

Two subcommands::

    python -m repro.store inspect <path>

prints a snapshot directory's manifest (format, kind, schema, store shape),
a per-level table — geometry, storage dtype, load factor, stash and
on-disk byte size — and one compact memory line per shard (mapped vs
resident column bytes).  Levels are inspected from their SEG1 metadata
alone (plus the one-byte-per-bucket occupancy column; no slot data read).
The manifest goes through the store's own reader (`read_manifest`), so a
manifest ``FilterStore.open`` would reject prints one ``error:`` line and
exits 1.  Durable roots additionally show a store-level ``durability:``
mode line and one WAL line per shard — frames, rows, bytes, last seq, and
whether the tail is clean or torn (the scan is read-only: inspecting a
crashed store never truncates what recovery would).

::

    python -m repro.store metrics <path> [--format prometheus|json]

attaches the snapshot and emits the unified observability snapshot
(`repro.store.metrics.store_metrics`): the structural gauges sampled from
the attached store plus this process's metrics registry, in Prometheus
text exposition (default) or JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs
from repro.ccf.mmapio import map_column
from repro.ccf.serialize import SerializeError
from repro.cuckoo.buckets import dtype_for_bits
from repro.kernels import active_backend
from repro.store.metrics import store_metrics
from repro.store.segments import read_segment_meta, segment_nbytes
from repro.store.store import MANIFEST_NAME, FilterStore, read_manifest
from repro.store.wal import scan_wal, wal_dir, wal_name


def _describe_segment(path: Path) -> dict:
    meta = read_segment_meta(path)
    params = meta["params"]
    num_buckets, bucket_size = meta["columns"]["fps"]["shape"]
    capacity = num_buckets * bucket_size
    # The occupancy column is one byte per bucket — cheap enough to read for
    # a real load factor without touching the slot matrices.
    entries = int(map_column(path, meta, "counts").sum())
    column_bytes = segment_nbytes(meta)
    if params.get("packed", True):
        dtype = dtype_for_bits(params["key_bits"]).name
    else:
        dtype = "int64"
    return {
        "num_buckets": num_buckets,
        "bucket_size": bucket_size,
        "dtype": dtype,
        "stash": len(meta["stash"]),
        "file_bytes": meta["file_size"],
        "column_bytes": sum(column_bytes.values()),
        "load_factor": entries / capacity if capacity else 0.0,
    }


def inspect(path: str | Path, out=None) -> int:
    """Print a snapshot's manifest and per-level geometry; 0 on success."""
    out = sys.stdout if out is None else out
    root = Path(path)
    if not (root / MANIFEST_NAME).exists():
        print(f"error: no {MANIFEST_NAME} under {root}", file=out)
        return 1
    try:
        manifest = read_manifest(root)
    except SerializeError as exc:
        print(f"error: {exc}", file=out)
        return 1
    params = manifest["params"]
    config = manifest["config"]
    print(f"FilterStore snapshot: {root}", file=out)
    print(
        f"  manifest format {manifest['format']}, kind={manifest['kind']}, "
        f"schema={manifest['schema']}",
        file=out,
    )
    print(
        f"  params: key_bits={params['key_bits']} attr_bits={params['attr_bits']} "
        f"bucket_size={params['bucket_size']} packed={params.get('packed', True)} "
        f"seed={params['seed']}",
        file=out,
    )
    print(
        f"  config: num_shards={config['num_shards']} "
        f"level_buckets={config['level_buckets']} target_load={config['target_load']}",
        file=out,
    )
    # The backend this process would probe the snapshot with (selection is
    # process-local: env var / set_backend, not a property of the snapshot).
    print(f"  kernel backend: {active_backend().name}", file=out)
    # This process's slow-op ring (worst traced requests), if anything has
    # been served here — an operator inspecting inside a serving process
    # sees the worst request without a second tool.
    slow = obs.SLOW_OPS.summary()
    if slow["count"]:
        print(
            f"  slow ops: {slow['count']} seen, {slow['tracked']} kept, "
            f"worst={slow['worst_us']:.0f}us stage={slow['worst_stage']} "
            f"tenant={slow['worst_tenant']}",
            file=out,
        )
    else:
        print("  slow ops: none", file=out)
    walsec = manifest.get("wal")
    if walsec is None:
        print("  durability: none (snapshot-only)", file=out)
    else:
        print(
            f"  durability: fsync={walsec['fsync']} gen={walsec['gen']} "
            f"flush_bytes={walsec['flush_bytes']} roll_bytes={walsec['roll_bytes']}",
            file=out,
        )
    ops = manifest.get("ops")
    if ops:
        print(
            "  ops: "
            f"queries={ops.get('query_calls', 0)} ({ops.get('query_keys', 0)} keys) "
            f"inserts={ops.get('insert_calls', 0)} ({ops.get('insert_keys', 0)} keys) "
            f"deletes={ops.get('delete_calls', 0)} ({ops.get('delete_keys', 0)} keys)",
            file=out,
        )
    total_bytes = 0
    total_levels = 0
    for shard_index, record in enumerate(manifest["shards"]):
        print(
            f"  shard {shard_index}: rows_inserted={record['rows_inserted']} "
            f"rows_deleted={record['rows_deleted']} "
            f"compactions={record['compactions']}",
            file=out,
        )
        shard_mapped = 0
        for entry in record["levels"]:
            try:
                info = _describe_segment(root / entry["file"])
            except (OSError, SerializeError) as exc:
                print(f"    {entry['file']}: UNREADABLE ({exc})", file=out)
                return 1
            print(
                f"    {entry['file']} [segment] "
                f"{info['num_buckets']}x{info['bucket_size']} slots "
                f"dtype={info['dtype']} load={info['load_factor']:.3f} "
                f"stash={info['stash']} bytes={info['file_bytes']}",
                file=out,
            )
            shard_mapped += info["column_bytes"]
            total_bytes += info["file_bytes"]
            total_levels += 1
        # Segment columns serve memory-mapped (shared page cache); an opened
        # snapshot holds no private heap columns until a mutation promotes one.
        print(f"    memory: mapped={shard_mapped} resident=0 bytes", file=out)
        if walsec is not None:
            wal_line = _describe_wal(
                wal_dir(root) / wal_name(shard_index, walsec["gen"])
            )
            print(f"    {wal_line}", file=out)
    print(f"  total: {total_levels} levels, {total_bytes} payload bytes", file=out)
    return 0


def _describe_wal(path: Path) -> str:
    """One shard's WAL line: frame chain shape and tail health (read-only)."""
    if not path.exists():
        return f"wal: {path.name} MISSING (recovery would fail)"
    try:
        scan = scan_wal(path)
    except SerializeError as exc:
        return f"wal: {path.name} UNREADABLE ({exc})"
    tail = "clean" if not scan.torn else (
        f"torn ({scan.torn_reason}; {scan.file_bytes - scan.valid_bytes} "
        "bytes would truncate)"
    )
    rows = sum(frame.nrows for frame in scan.frames)
    return (
        f"wal: frames={len(scan.frames)} rows={rows} bytes={scan.valid_bytes} "
        f"last_seq={scan.last_seq} tail={tail}"
    )


def metrics(path: str | Path, fmt: str = "prometheus", out=None) -> int:
    """Attach a snapshot and emit its metrics snapshot; 0 on success."""
    out = sys.stdout if out is None else out
    root = Path(path)
    if not (root / MANIFEST_NAME).exists():
        print(f"error: no {MANIFEST_NAME} under {root}", file=out)
        return 1
    store = FilterStore.open(root)
    snapshot = store_metrics(store)
    if fmt == "prometheus":
        print(obs.to_prometheus(snapshot), end="", file=out)
    else:
        print(obs.to_json(snapshot), file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="FilterStore snapshot tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inspect_cmd = sub.add_parser(
        "inspect", help="print a snapshot's manifest and per-level geometry"
    )
    inspect_cmd.add_argument("path", help="snapshot directory (holds manifest.json)")
    metrics_cmd = sub.add_parser(
        "metrics", help="emit the snapshot's metrics registry (scrape surface)"
    )
    metrics_cmd.add_argument("path", help="snapshot directory (holds manifest.json)")
    metrics_cmd.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="output form (default: prometheus text exposition)",
    )
    args = parser.parse_args(argv)
    if args.command == "inspect":
        return inspect(args.path)
    if args.command == "metrics":
        return metrics(args.path, args.format)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
